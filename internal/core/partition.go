package core

import (
	"decibel/internal/bitmap"
	"decibel/internal/heap"
	"decibel/internal/store"
	"decibel/internal/vgraph"
)

// What an engine says about a read. The three schemes of Section 3
// differ in how a version maps to stored record copies, and since each
// expresses a version the same way — one bitmap of live slots per slot
// space — that mapping is all an engine answers (Engine.Live). Turning
// the bitmaps of the versions a scan reads into scan units is done
// here, once: a single version walks its bitmap, a diff the XOR of its
// two sides' with the side read from A's, a multi-branch scan the OR of
// the k versions' with each row's membership read from all k. A merge's
// key discovery is the same XOR, against the LCA (Merge.Changed).

// Version is one version a read addresses: Commit when it is set, the
// head of Branch otherwise.
type Version struct {
	Branch vgraph.BranchID
	Commit *vgraph.Commit
}

// versions returns the versions the request reads, in the order the
// combine rules index them: the one version of a branch or commit
// scan, A then B for a diff, the requested heads for a multi-branch
// scan.
func (r ScanRequest) versions() []Version {
	switch r.Kind {
	case ScanKindCommit:
		return []Version{{Commit: r.Commit}}
	case ScanKindDiff:
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
	// Frozen says the segment takes no more appends, so a unit over it
	// may run on any goroutine.
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
		u, ok := combine(kind, &spaces[i])
		if !ok {
			continue
		}
		for _, sg := range spaces[i].Segs {
			sg.Pin()
			u.seg, u.Frozen, u.Zone, u.PhysCols = sg, sg.Frozen, sg.Zone(), sg.Cols
			units = append(units, u)
		}
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

// walkSlots hands visit every slot of sg set in bm — both in the
// space's slot numbering — with its stored buffer, in slot order,
// until visit returns false. When the segment keeps page zones and spec
// (which may be nil) carries bounds, the page-sized chunks whose zones
// exclude them are skipped; spec is never evaluated per record.
func walkSlots(sg SpaceSeg, bm *bitmap.Bitmap, spec *ScanSpec, visit func(slot int64, buf []byte) bool) error {
	base := sg.Base
	var live heap.Bitmapper = bm
	if base != 0 {
		live = offsetBitmap{bm: bm, base: base}
	}
	pz := sg.Pages()
	if pz == nil || spec == nil || !spec.HasBounds() {
		return sg.File.ScanLive(live, func(slot int64, buf []byte) bool {
			return !bm.Get(int(base+slot)) || visit(base+slot, buf)
		})
	}
	stopped := false
	local := func(slot int64, buf []byte) bool {
		if !bm.Get(int(base + slot)) {
			return true
		}
		stopped = !visit(base+slot, buf)
		return !stopped
	}
	// Any slot a liveness snapshot can mark live was appended — and
	// folded into its page zone — before the snapshot was taken, so
	// [0, NumChunks) covers every visitable slot.
	chunk := pz.Chunk()
	for p, n := 0, pz.NumChunks(); p < n && !stopped; p++ {
		if z := pz.Zone(p); z != nil && spec.SkipPage(z, sg.Cols) {
			continue
		}
		if err := sg.File.ScanLiveRange(live, int64(p)*chunk, int64(p+1)*chunk, local); err != nil {
			return err
		}
	}
	return nil
}

// offsetBitmap adapts a space's slot bitmap to the local slot numbers
// of a segment starting at base.
type offsetBitmap struct {
	bm   *bitmap.Bitmap
	base int64
}

func (o offsetBitmap) NextSet(i int) int {
	n := o.bm.NextSet(i + int(o.base))
	if n < 0 {
		return -1
	}
	return n - int(o.base)
}
