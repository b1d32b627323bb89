package core

import (
	"decibel/internal/bitmap"
	"decibel/internal/store"
	"decibel/internal/vgraph"
)

// What an engine says about a read. The three schemes of Section 3
// differ in how a version maps to stored record copies, and since each
// expresses a version the same way — one bitmap of live slots per slot
// space — that mapping is all an engine answers (Engine.Live). Turning
// the bitmaps of the versions a scan reads into scan units is done
// here, once: a single version walks its bitmap; a positive diff
// (Query 2) walks A AND NOT B, so no slot of B's alone is visited; a
// symmetric diff walks the XOR of its two sides' with the side read
// from A's; a multi-branch scan walks the OR of the k versions' with
// each row's membership read from all k. A merge's key discovery is
// the same XOR, against the LCA (Merge.Changed).

// Version is one version a read addresses: Commit when it is set, the
// head of Branch otherwise.
type Version struct {
	Branch vgraph.BranchID
	Commit *vgraph.Commit
}

// versions returns the versions the request reads, in the order the
// combine rules index them: the one version of a branch or commit
// scan, A then B for either diff, the requested heads for a
// multi-branch scan.
func (r ScanRequest) versions() []Version {
	switch r.Kind {
	case ScanKindCommit:
		return []Version{{Commit: r.Commit}}
	case ScanKindDiff, ScanKindPositiveDiff:
		return []Version{{Branch: r.A}, {Branch: r.B}}
	case ScanKindMulti:
		vs := make([]Version, len(r.Branches))
		for i, b := range r.Branches {
			vs[i].Branch = b
		}
		return vs
	}
	return []Version{{Branch: r.Branch}}
}

// SlotSpace is one slot space of an engine — what a store.Pos.Seg
// names: tuple-first's shared heap, one segment of hybrid or
// version-first — and which of its slots each requested version holds.
type SlotSpace struct {
	ID int32
	// Live holds one bitmap per requested version, in request order;
	// nil means nothing is live there. The slice is the caller's; the
	// bitmaps are the engine's when Mutable is set.
	Live []*bitmap.Bitmap
	// Segs are the space's segments in slot order.
	Segs []SpaceSeg
	// Mutable says Live holds the engine's own bitmaps (branch heads),
	// which change once the engine lock drops, rather than snapshots
	// nobody mutates (checkouts, cached plans). A scan copies the ones it
	// keeps.
	Mutable bool
}

// SpaceSeg is one segment of a slot space.
type SpaceSeg struct {
	*store.Segment
	// Base is the space's slot number of the segment's slot 0: nonzero
	// only for tuple-first's later extents.
	Base int64
	// Frozen says the segment takes no more appends, so its zone map
	// bounds every row a unit over it can visit.
	Frozen bool
}

// empty stands in for a version with nothing live in a space; it is
// only ever read.
var empty = bitmap.New(0)

func orEmpty(bm *bitmap.Bitmap) *bitmap.Bitmap {
	if bm == nil {
		return empty
	}
	return bm
}

// keep returns a bitmap of the space a scan may hold past the engine
// lock: a copy when the engine mutates it.
func (sp *SlotSpace) keep(bm *bitmap.Bitmap) *bitmap.Bitmap {
	if sp.Mutable {
		return bm.Clone()
	}
	return bm
}

// Partition asks eng which slots the request's versions hold and
// builds the scan's units (see scanUnits). release, non-nil whenever
// err is nil, unpins the units' segments once the last unit has
// finished.
func Partition(eng Engine, req ScanRequest) (units []ScanUnit, release func(), err error) {
	if units, err = scanUnits(eng, req); err != nil {
		return nil, nil, err
	}
	return units, func() { unpin(units) }, nil
}

// scanUnits builds the request's units, one per segment of every space
// with a slot to walk, in the engine's scan order. Each unit's segment
// is pinned under the engine lock until unpin, which is what lets a
// concurrent compaction retire replaced segment files only after every
// in-flight reader drains.
func scanUnits(eng Engine, req ScanRequest) (units []ScanUnit, err error) {
	err = eng.Live(req.versions(), func(spaces []SlotSpace) error {
		units = buildUnits(req.Kind, spaces)
		return nil
	})
	return units, err
}

func unpin(units []ScanUnit) {
	for i := range units {
		units[i].seg.Unpin()
	}
}

func buildUnits(kind ScanKind, spaces []SlotSpace) []ScanUnit {
	n := 0
	for i := range spaces {
		n += len(spaces[i].Segs)
	}
	units := make([]ScanUnit, 0, n)
	for i := range spaces {
		if u, ok := combine(kind, &spaces[i]); ok {
			units = appendUnits(units, u, spaces[i].Segs)
		}
	}
	return units
}

// appendUnits appends one unit per segment, each u over that segment,
// pinned.
func appendUnits(units []ScanUnit, u ScanUnit, segs []SpaceSeg) []ScanUnit {
	for _, sg := range segs {
		sg.Pin()
		u.seg, u.Frozen, u.Zone, u.PhysCols = sg, sg.Frozen, sg.Zone(), sg.Cols
		units = append(units, u)
	}
	return units
}

// combine applies the request's rule to one slot space, returning what
// the units over its segments share: the bitmap they walk and where
// their rows' annotations come from. ok is false when nothing is left
// to walk.
func combine(kind ScanKind, sp *SlotSpace) (u ScanUnit, ok bool) {
	switch kind {
	case ScanKindDiff:
		a, b := sp.Live[0], sp.Live[1]
		if a == nil && b == nil {
			return u, false
		}
		u.live = bitmap.Xor(orEmpty(a), orEmpty(b))
		if !u.live.Any() {
			return u, false
		}
		u.side = empty
		if a != nil {
			u.side = sp.keep(a)
		}
	case ScanKindPositiveDiff:
		a := sp.Live[0]
		if a == nil {
			return u, false
		}
		u.live = a.Clone()
		if b := sp.Live[1]; b != nil {
			u.live.AndNot(b)
		}
		if !u.live.Any() {
			return u, false
		}
	case ScanKindMulti:
		for i, bm := range sp.Live {
			if bm == nil || !bm.Any() {
				sp.Live[i] = nil
				continue
			}
			sp.Live[i] = sp.keep(bm)
			if u.live == nil {
				u.live = sp.Live[i].Clone()
			} else {
				u.live.Or(sp.Live[i])
			}
		}
		if u.live == nil {
			return u, false
		}
		u.cols = sp.Live
	default:
		bm := sp.Live[0]
		if bm == nil || !bm.Any() {
			return u, false
		}
		u.live = sp.keep(bm)
	}
	return u, true
}

// slotWalker walks one segment's live slots at a time (walkSlots). Its
// page callback, bound once by bind, reads the walk's state through the
// walker, so a runner that keeps one walks unit after unit without
// allocating.
type slotWalker struct {
	bm      *bitmap.Bitmap
	base    int64
	visit   func(slot int64, buf []byte) bool
	stopped bool
	// usePlanes says the current unit's dcz pages walk by planes
	// (walkPlanes) through the scan's program.
	usePlanes bool
	planes    *planeProg
	page      func(slot int64, buf []byte) bool // bound once: filters a page's slots by bm
	// fold, when set, takes the current unit's dcz pages whole
	// (foldPage), with pred deciding the rows their planes leave
	// undecided and done, when not nil, polled once a page.
	fold PageSink
	pred func(buf []byte) bool
	done <-chan struct{}
	sel  []uint64 // foldPage's selection words
	// scanned and skipped count the current walk's live pages: skipped
	// those whose planes ruled out every row, scanned the rest; folded
	// counts the rows it handed to fold.
	scanned, skipped, folded int64
}

// bind sets the visit callback every walk hands its live slots to.
func (w *slotWalker) bind(visit func(slot int64, buf []byte) bool) {
	w.visit = visit
	w.page = func(slot int64, buf []byte) bool {
		if !w.bm.Get(int(w.base + slot)) {
			return true
		}
		w.stopped = !w.visit(w.base+slot, buf)
		return !w.stopped
	}
}

// walkSlots hands visit every slot of sg set in bm — both in the
// space's slot numbering — with its stored buffer, in slot order,
// until visit returns false. It reads only the pages that hold a set
// bit: on branch-clustered data that skips the pages holding other
// branches' records, the page-granularity benefit the paper attributes
// to clustering (Section 5.5), while fully interleaved data degrades to
// a whole-file scan. Each such page is walked one way: with usePlanes
// set, a page of a dcz segment visits only the live slots its planes do
// not rule out (planes.go); with fold set, a page of a dcz segment goes
// to fold whole (foldPage); every other page visits its live slots as
// rows. The walk adds its live pages and folded rows to the counters
// once, when it ends.
func (w *slotWalker) walkSlots(sg SpaceSeg, bm *bitmap.Bitmap) error {
	w.bm, w.base, w.stopped, w.scanned, w.skipped, w.folded = bm, sg.Base, false, 0, 0, 0
	defer w.count()
	per := int64(sg.File.PerPage())
	end := sg.Base + sg.File.Count()
	var cf *store.CompressedFile
	if w.usePlanes || w.fold != nil {
		cf, _ = sg.File.(*store.CompressedFile)
	}
	for next := int64(bm.NextSet(int(sg.Base))); next >= 0 && next < end; {
		p := (next - sg.Base) / per
		handled := false
		if cf != nil {
			var err error
			if w.fold != nil {
				handled, err = true, w.foldPage(cf, p, per, end)
			} else {
				handled, err = w.walkPlanes(cf, p, per, end)
			}
			if err != nil || w.stopped {
				return err
			}
		}
		if !handled {
			w.scanned++
			if err := sg.File.Scan(p*per, (p+1)*per, w.page); err != nil || w.stopped {
				return err
			}
		}
		next = int64(bm.NextSet(int(sg.Base + (p+1)*per)))
	}
	return nil
}

// count adds the walk's live pages and folded rows to the published
// counters.
func (w *slotWalker) count() {
	if w.scanned != 0 {
		pagesScanned.Add(w.scanned)
	}
	if w.skipped != 0 {
		pagesSkipped.Add(w.skipped)
	}
	if w.folded != 0 {
		planeFoldedRows.Add(w.folded)
	}
}
