package hy

import (
	"decibel/internal/bitmap"
	"decibel/internal/core"
	"decibel/internal/store"
	"decibel/internal/vgraph"
)

// The read SPI (core.Engine.Live and LookupPK). Hybrid keeps
// per-(segment, branch) bitmaps, so each segment is a slot space and a
// version is its bitmap there: the branch's local bitmap for a head,
// the commit's checkout for a commit. Segments with no live record in
// any requested version are left out (the global branch-segment
// relation of Section 3.4), so a multi-branch scan reads each
// qualifying segment once for all of them.

// LookupPK implements core.Engine: the version index lists the key's
// (segment, slot) positions and the version's bitmaps pick the live one
// — the branch's local bitmaps for a head, the commit's checkouts for a
// commit.
func (e *Engine) LookupPK(v core.Version, pk int64) ([]byte, int, bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var p pos
	if v.Commit == nil {
		if _, ok := e.headSeg[v.Branch]; !ok {
			return nil, 0, false, nil
		}
		p = e.livePos(v.Branch, pk)
	} else {
		var err error
		if p, err = e.commitPosLocked(v.Commit, pk); err != nil {
			return nil, 0, false, err
		}
	}
	if p == store.NoPos {
		return nil, 0, true, nil
	}
	s := e.byID[p.Seg]
	buf := make([]byte, s.Schema.RecordSize())
	if err := s.File.Read(p.Slot, buf); err != nil {
		return nil, 0, false, err
	}
	return buf, s.Cols, true, nil
}

// commitPosLocked returns the position of pk's version live at commit
// c, store.NoPos when it has none. The version index walk tests each
// position against the commit's checkout of that position's segment;
// a segment's checkout is taken at most once per call, and only for
// the segments the key's versions live in. Caller holds e.mu.
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

// spacesLocked returns, in segment-table order, the segments live in
// any of the versions as slot spaces. A commit's checkout is taken once
// for all segments. Caller holds e.mu.
func (e *Engine) spacesLocked(vs []core.Version) ([]core.SlotSpace, error) {
	snaps := make([]map[segID]*bitmap.Bitmap, len(vs))
	mutable := false
	for i, v := range vs {
		if v.Commit == nil {
			mutable = true
			continue
		}
		var err error
		if snaps[i], err = e.checkoutLocked(v.Commit.Branch, v.Commit.Seq); err != nil {
			return nil, err
		}
	}
	k := len(vs)
	live := make([]*bitmap.Bitmap, len(e.cat.Segs)*k)
	segs := make([]core.SpaceSeg, len(e.cat.Segs))
	spaces := make([]core.SlotSpace, 0, len(e.cat.Segs))
	for j, s := range e.cat.Segs {
		row, held := live[j*k:(j+1)*k:(j+1)*k], false
		for i, v := range vs {
			if v.Commit == nil {
				row[i] = s.local[v.Branch]
			} else {
				row[i] = snaps[i][s.ID]
			}
			held = held || row[i] != nil
		}
		if held {
			segs[j] = core.SpaceSeg{Segment: s.Segment, Frozen: s.Frozen}
			spaces = append(spaces, core.SlotSpace{ID: s.ID, Live: row, Segs: segs[j : j+1], Mutable: mutable})
		}
	}
	return spaces, nil
}
