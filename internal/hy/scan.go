package hy

import (
	"decibel/internal/bitmap"
	"decibel/internal/core"
	"decibel/internal/store"
	"decibel/internal/vgraph"
)

// The read SPI (core.Engine.PartitionScan and LookupPK). Hybrid keeps
// per-(segment, branch) bitmaps, so every scan shape partitions into
// one unit per segment whose walk is the segment's live-page scan under
// a bitmap snapshotted at partition time: the branch's local bitmap, a
// checkout, the XOR of two branches', or — for a multi-branch scan —
// the OR of the requested branches' local bitmaps, so each qualifying
// segment is read once for all of them. Segments with no live record in
// any requested branch never become units (the global branch-segment
// relation of Section 3.4); the scan driver in core prunes the rest by
// zone map and evaluates the spec on the raw page buffer.

// LookupPK implements core.Engine: the version index lists the key's
// (segment, slot) positions and the version's bitmaps pick the live one
// — the branch's local bitmaps for a head, the commit's checkouts for a
// commit.
func (e *Engine) LookupPK(req core.ScanRequest, pk int64) ([]byte, int, bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var p pos
	switch req.Kind {
	case core.ScanKindBranch:
		if _, ok := e.headSeg[req.Branch]; !ok {
			return nil, 0, false, nil
		}
		p = e.livePos(req.Branch, pk)
	case core.ScanKindCommit:
		var err error
		if p, err = e.commitPosLocked(req.Commit, pk); err != nil {
			return nil, 0, false, err
		}
	default:
		return nil, 0, false, nil
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

// PartitionScan implements core.Engine: one unit per segment holding
// live records of the request, in segment-table order, with all shared
// state (bitmaps, checkout snapshots) captured under the engine lock.
// Every segment a unit references is pinned until release is called.
func (e *Engine) PartitionScan(req core.ScanRequest) ([]core.ScanUnit, func(), error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	pins := &core.Pins{}
	var units []core.ScanUnit
	switch req.Kind {
	case core.ScanKindBranch:
		segs := e.branchSegmentsLocked(req.Branch)
		units = make([]core.ScanUnit, 0, len(segs))
		for _, s := range segs {
			units = append(units, pins.Unit(s.Segment, s.Frozen, s.local[req.Branch].Clone(), nil))
		}

	case core.ScanKindCommit:
		snap, err := e.checkoutLocked(req.Commit.Branch, req.Commit.Seq)
		if err != nil {
			return nil, nil, err
		}
		// Segment-table order, like every other shape (ids alone do not
		// encode it in datasets an older merge compaction touched).
		units = make([]core.ScanUnit, 0, len(snap))
		for _, s := range e.segs {
			if bm, ok := snap[s.id]; ok {
				units = append(units, pins.Unit(s.Segment, s.Frozen, bm, nil))
			}
		}

	case core.ScanKindDiff:
		for _, s := range e.segs {
			colA, okA := s.local[req.A]
			colB, okB := s.local[req.B]
			if !okA && !okB {
				continue
			}
			if colA == nil {
				colA = bitmap.New(0)
			}
			if colB == nil {
				colB = bitmap.New(0)
			}
			x := bitmap.Xor(colA, colB)
			if !x.Any() {
				continue
			}
			units = append(units, pins.Unit(s.Segment, s.Frozen, x, core.DiffAux(colA.Clone())))
		}

	case core.ScanKindMulti:
		for _, s := range e.segs {
			cols := make([]*bitmap.Bitmap, len(req.Branches))
			union := bitmap.New(0)
			for i, b := range req.Branches {
				if bm, ok := s.local[b]; ok && bm.Any() {
					cols[i] = bm.Clone()
					union.Or(cols[i])
				}
			}
			if !union.Any() {
				continue
			}
			units = append(units, pins.Unit(s.Segment, s.Frozen, union, core.MemberAux(cols)))
		}
	}
	return units, pins.Release, nil
}
