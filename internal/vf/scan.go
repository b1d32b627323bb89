package vf

import (
	"fmt"

	"decibel/internal/bitmap"
	"decibel/internal/core"
	"decibel/internal/record"
	"decibel/internal/store"
	"decibel/internal/vgraph"
)

// The read SPI (core.Engine.PartitionScan and LookupPK). Version-first
// has no branch bitmaps — liveness comes from resolving segment
// lineages — but a resolved version is what hybrid stores: a set of
// live slots per segment. So each position a scan reads resolves, under
// the engine lock, into a scan plan of one slot bitmap per segment
// (cached per position, see cache.go), and every shape partitions into
// one unit per segment, in segment-id order, combining the plans the
// way hybrid combines branch bitmaps: a branch or commit scan walks its
// one plan, a diff the XOR of its two sides' plans (a position holds one
// key, so the XOR is exactly the copies live on one side only) with the
// side read from A's, and a multi-branch scan the OR of the k plans with
// each row's membership read from all k. The scan driver in core drops
// units whose zone maps exclude the spec's bounds and evaluates the spec
// on the raw record buffer. Segments that are no branch's head never
// take another append and are frozen units the scan pool may fan out;
// branch heads stay on the caller's goroutine.

// LookupPK implements core.Engine. Version-first has no key index —
// the paper's scheme resolves liveness from the segment lineage — and
// needs none for one key: the version's lineage steps (a branch head's
// cut, or a commit's recorded offset) are probed in rank order, and the
// first step that claims the key decides, exactly as it does for every
// key of a resolved live set. No live set is built.
func (e *Engine) LookupPK(req core.ScanRequest, pk int64) ([]byte, int, bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var at pos
	switch req.Kind {
	case core.ScanKindBranch:
		var err error
		if at, err = e.headPosLocked(req.Branch); err != nil {
			return nil, 0, false, nil // unknown branch: let the scan path report it
		}
	case core.ScanKindCommit:
		var ok bool
		if at, ok = e.commits[req.Commit.ID]; !ok {
			return nil, 0, false, nil // unknown commit: likewise
		}
	default:
		return nil, 0, false, nil
	}
	p, err := e.claimAt(at, pk)
	if err != nil {
		return nil, 0, false, err
	}
	if p == store.NoPos {
		return nil, 0, true, nil
	}
	seg := e.segs[p.Seg]
	buf := make([]byte, seg.Schema.RecordSize())
	if err := seg.File.Read(p.Slot, buf); err != nil {
		return nil, 0, false, err
	}
	return buf, seg.Cols, true, nil
}

// headsLocked returns the set of segments currently serving as a
// branch head — the only segments still taking appends. Caller holds
// e.mu.
func (e *Engine) headsLocked() map[segID]bool {
	heads := make(map[segID]bool, len(e.byBranch))
	for _, id := range e.byBranch {
		heads[id] = true
	}
	return heads
}

// planLocked returns the scan plan of one resolved position, from the
// plan cache (a hit counts as a lineage cache hit: the plan embeds the
// resolution) or built from the position's live set. Branch-head and
// commit scans share it: same position, same plan. Caller holds e.mu.
func (e *Engine) planLocked(p pos) (*planEntry, error) {
	if e.pcache != nil {
		if en, ok := e.pcache.get(p); ok {
			vfCacheHits.Add(1)
			return en, nil
		}
	}
	live, err := e.resolveLive(p)
	if err != nil {
		return nil, err
	}
	en := e.newPlan(live)
	if e.pcache != nil {
		e.pcache.put(p, en)
	}
	return en, nil
}

// headPosLocked returns the position a head scan of the branch
// resolves: its head segment, cut at the current append point. Caller
// holds e.mu.
func (e *Engine) headPosLocked(b vgraph.BranchID) (pos, error) {
	s, cut, err := e.headLocked(b)
	if err != nil {
		return pos{}, err
	}
	return pos{Seg: s.id, Slot: cut}, nil
}

// plansLocked returns the plans of the positions the request reads, in
// request order: the one version of a branch or commit scan, A then B
// for a diff, the requested branches' heads for a multi-branch scan.
// Caller holds e.mu.
func (e *Engine) plansLocked(req core.ScanRequest) ([]*planEntry, error) {
	var at []pos
	var branches []vgraph.BranchID
	switch req.Kind {
	case core.ScanKindCommit:
		p, ok := e.commits[req.Commit.ID]
		if !ok {
			return nil, fmt.Errorf("vf: commit %d has no recorded offset", req.Commit.ID)
		}
		at = []pos{p}
	case core.ScanKindMulti:
		branches = req.Branches
	case core.ScanKindDiff:
		branches = []vgraph.BranchID{req.A, req.B}
	default:
		branches = []vgraph.BranchID{req.Branch}
	}
	for _, b := range branches {
		p, err := e.headPosLocked(b)
		if err != nil {
			return nil, err
		}
		at = append(at, p)
	}
	plans := make([]*planEntry, len(at))
	for i, p := range at {
		var err error
		if plans[i], err = e.planLocked(p); err != nil {
			return nil, err
		}
	}
	return plans, nil
}

// PartitionScan implements core.Engine: the request's plans are
// resolved under the engine lock and combined into one unit per segment
// with a live slot in any of them. Every segment a unit references is
// pinned until release is called.
func (e *Engine) PartitionScan(req core.ScanRequest) ([]core.ScanUnit, func(), error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	plans, err := e.plansLocked(req)
	if err != nil {
		return nil, nil, err
	}
	heads := e.headsLocked()
	pins := &core.Pins{}
	var units []core.ScanUnit
	for _, s := range e.segs {
		unit := func(bm *bitmap.Bitmap, aux func(slot int64) core.UnitAux) {
			units = append(units, pins.Unit(s.Segment, !heads[s.id], bm, aux))
		}
		switch req.Kind {
		case core.ScanKindDiff:
			a, b := plans[0].slots(s.id), plans[1].slots(s.id)
			if a == nil && b == nil {
				continue
			}
			if a == nil {
				a = bitmap.New(0)
			}
			if b == nil {
				b = bitmap.New(0)
			}
			if x := bitmap.Xor(a, b); x.Any() {
				unit(x, core.DiffAux(a))
			}
		case core.ScanKindMulti:
			cols := make([]*bitmap.Bitmap, len(plans))
			union := bitmap.New(0)
			for i, pl := range plans {
				if cols[i] = pl.slots(s.id); cols[i] != nil {
					union.Or(cols[i])
				}
			}
			if union.Any() {
				unit(union, core.MemberAux(cols))
			}
		default:
			if bm := plans[0].slots(s.id); bm != nil {
				unit(bm, nil)
			}
		}
	}
	return units, pins.Release, nil
}

// InsertBatch implements core.Engine: one lock acquisition and one head
// lookup for the whole batch.
func (e *Engine) InsertBatch(branch vgraph.BranchID, recs []*record.Record) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, err := e.writeHeadLocked(branch)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if err := e.appendLocked(s, rec); err != nil {
			return err
		}
	}
	return nil
}
