package hy

import (
	"decibel/internal/bitmap"
	"decibel/internal/core"
	"decibel/internal/store"
	"decibel/internal/vgraph"
)

// The read SPI (core.Engine.Live and LookupPK). A version is its
// bitmaps by slot space: the branch's own for a head, the commit's
// checkouts for a commit. Hybrid's spaces are its segments, and those
// with no live record in any requested version are left out (the global
// branch-segment relation of Section 3.4), so a multi-branch scan reads
// each qualifying segment once for all of them. Tuple-first's one space
// is the chain of extents, each at its base slot. Because extents
// rotate only on schema change, one extent typically spans every
// branch's rows and its segment-level zone rarely prunes; a chained
// catalog therefore also gives each extent an in-memory page-zone index
// (store.PageZones), which core's unit walk uses to skip page-sized
// chunks inside the surviving extents.

// LookupPK implements core.Engine: the version index (Section 3.2's
// update/delete index, kept once for all branches) lists the key's
// positions, and the version's bitmaps pick the live one. A branch the
// engine never registered holds nothing: the key is served, not live.
func (e *Engine) LookupPK(v core.Version, pk int64) ([]byte, int, bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var p pos
	if v.Commit == nil {
		p = e.livePos(e.live[v.Branch], pk)
	} else {
		var err error
		if p, err = e.commitPosLocked(v.Commit, pk); err != nil {
			return nil, 0, false, err
		}
	}
	if p == store.NoPos {
		return nil, 0, true, nil
	}
	s, slot := e.segAt(p)
	buf := make([]byte, s.Schema.RecordSize())
	if err := s.File.Read(slot, buf); err != nil {
		return nil, 0, false, err
	}
	return buf, s.Cols, true, nil
}

// commitPosLocked returns the position of pk's version live at commit
// c, store.NoPos when it has none. The version index walk tests each
// position against the commit's checkout of that position's slot
// space; a space's checkout is taken at most once per call, and only
// for the spaces the key's versions live in. Caller holds e.mu.
func (e *Engine) commitPosLocked(c *vgraph.Commit, pk int64) (pos, error) {
	var err error
	snaps := make(map[segID]*bitmap.Bitmap) // nil: no committed state of c.Branch there
	p := e.vers.Find(pk, func(p pos) bool {
		bm, taken := snaps[p.Seg]
		if !taken {
			if bm, err = e.segCheckoutLocked(logKey{Branch: c.Branch, Seg: p.Seg}, c.Seq); err != nil {
				return true // stop the walk; the error is returned below
			}
			snaps[p.Seg] = bm
		}
		return bm != nil && bm.Get(int(p.Slot))
	})
	return p, err
}

// Live implements core.Engine.
func (e *Engine) Live(vs []core.Version, fn func([]core.SlotSpace) error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	spaces, err := e.spacesLocked(vs)
	if err != nil {
		return err
	}
	return fn(spaces)
}

// spacesLocked returns, in scan order, the slot spaces live in any of
// the versions. A commit's checkout is taken once for all spaces.
// Published segments are immutable; only heads (tuple-first's tail),
// which are never Frozen, still grow. Caller holds e.mu.
func (e *Engine) spacesLocked(vs []core.Version) ([]core.SlotSpace, error) {
	var snaps []map[segID]*bitmap.Bitmap // allocated only when a version is a commit
	mutable := false
	for i, v := range vs {
		if v.Commit == nil {
			mutable = true
			continue
		}
		if snaps == nil {
			snaps = make([]map[segID]*bitmap.Bitmap, len(vs))
		}
		var err error
		if snaps[i], err = e.checkoutLocked(v.Commit.Branch, v.Commit.Seq); err != nil {
			return nil, err
		}
	}
	segs := make([]core.SpaceSeg, len(e.cat.Segs))
	for j, s := range e.cat.Segs {
		segs[j] = core.SpaceSeg{Segment: s.Segment, Base: s.Base, Frozen: s.Frozen}
	}
	n, k := len(segs), len(vs)
	if e.chained {
		n = 1
	}
	live := make([]*bitmap.Bitmap, n*k)
	spaces := make([]core.SlotSpace, 0, n)
	for j := 0; j < n; j++ {
		id, in := e.cat.Segs[j].ID, segs[j:j+1]
		if e.chained {
			id, in = 0, segs
		}
		row, held := live[j*k:(j+1)*k:(j+1)*k], false
		for i, v := range vs {
			if v.Commit == nil {
				row[i] = e.live[v.Branch][id]
			} else {
				row[i] = snaps[i][id]
			}
			held = held || row[i] != nil
		}
		if held {
			spaces = append(spaces, core.SlotSpace{ID: id, Live: row, Segs: in, Mutable: mutable})
		}
	}
	return spaces, nil
}
