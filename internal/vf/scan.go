package vf

import (
	"fmt"

	"decibel/internal/bitmap"
	"decibel/internal/core"
	"decibel/internal/record"
	"decibel/internal/store"
	"decibel/internal/vgraph"
)

// The read SPI (core.Engine.Live and LookupPK). Version-first has no
// branch bitmaps — liveness comes from resolving segment lineages — but
// a resolved version is what hybrid stores: a set of live slots per
// segment. So each version a read addresses resolves, under the engine
// lock, into a scan plan of one slot bitmap per segment (cached per
// position, see cache.go), and each segment is a slot space whose
// bitmaps are the plans' — snapshots, shared with the cache. Segments
// that are no branch's head never take another append and are frozen;
// branch heads are not.

// LookupPK implements core.Engine. The key's copies come from the
// version index, newest first, and are ranked by the step of the
// version's lineage (a branch head's cut, or a commit's recorded
// offset) that holds them: the first step that claims the key decides,
// exactly as it does for every key of a resolved plan. No plan is
// built.
func (e *Engine) LookupPK(v core.Version, pk int64) ([]byte, int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	at, err := e.versionPosLocked(v)
	if err != nil {
		return nil, 0, err
	}
	steps, err := e.lineageAt(at)
	if err != nil {
		return nil, 0, err
	}
	var held [8]pos
	copies := held[:0]
	e.vers.Find(pk, func(q pos) bool {
		copies = append(copies, q)
		return false
	})
	p := e.claimLocked(steps, pk, copies)
	if p == store.NoPos {
		return nil, 0, nil
	}
	seg := e.cat.Segs[p.Seg]
	buf := make([]byte, seg.Schema.RecordSize())
	if err := seg.File.Read(p.Slot, buf); err != nil {
		return nil, 0, err
	}
	return buf, seg.Cols, nil
}

// claimLocked returns the copy of pk live at the lineage steps,
// store.NoPos when it has none: the claim of the first step that makes
// one, an override of pk or the first of copies (pk's, newest first)
// in the step's interval, absent if a tombstone. Caller holds e.mu.
func (e *Engine) claimLocked(steps []step, pk int64, copies []pos) pos {
	for _, st := range steps {
		if st.isOvr {
			for _, ov := range e.cat.Segs[st.ovr].overrides {
				if ov.PK == pk {
					return ov.claim()
				}
			}
			continue
		}
		for _, q := range copies {
			if q.Seg == st.iv.Seg && st.iv.From <= q.Slot && q.Slot < st.iv.To {
				if e.isDead(q) {
					return store.NoPos
				}
				return q
			}
		}
	}
	return store.NoPos
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

// planLocked returns the scan plan of one position: from the plan cache
// (a hit counts as a lineage cache hit: the plan embeds the
// resolution), derived from a base plan, or built by one pass over the
// version index. Branch-head and commit scans share it: same position,
// same plan. With the cache off every plan takes the full lineage walk
// instead. Caller holds e.mu.
func (e *Engine) planLocked(p pos) (*planEntry, error) {
	if e.pcache == nil {
		return e.resolveLiveFull(p)
	}
	if en, ok := e.pcache.get(p); ok {
		vfCacheHits.Add(1)
		return en, nil
	}
	vfCacheMisses.Add(1)
	if int(p.Seg) >= len(e.cat.Segs) {
		return nil, fmt.Errorf("vf: segment %d out of range", p.Seg)
	}
	en, err := e.derivePlanLocked(p)
	switch {
	case err != nil:
		return nil, err
	case en != nil:
		vfDeltaResolves.Add(1)
	default:
		if en, err = e.indexPlanLocked(p); err != nil {
			return nil, err
		}
	}
	e.pcache.put(p, en)
	return en, nil
}

// versionPosLocked returns the position a version resolves: a branch's
// head segment cut at its append point, or a commit's recorded offset.
// Caller holds e.mu.
func (e *Engine) versionPosLocked(v core.Version) (pos, error) {
	if v.Commit == nil {
		s, cut, err := e.headLocked(v.Branch)
		if err != nil {
			return pos{}, err
		}
		return pos{Seg: s.ID, Slot: cut}, nil
	}
	p, ok := e.commits[v.Commit.ID]
	if !ok {
		return pos{}, fmt.Errorf("vf: commit %d has no recorded offset", v.Commit.ID)
	}
	return p, nil
}

// Live implements core.Engine.
func (e *Engine) Live(vs []core.Version, fn func([]core.SlotSpace) error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	plans, err := e.plansLocked(vs)
	if err != nil {
		return err
	}
	return fn(e.spacesLocked(plans))
}

// plansLocked returns the scan plans of the versions. Caller holds e.mu.
func (e *Engine) plansLocked(vs []core.Version) ([]*planEntry, error) {
	plans := make([]*planEntry, len(vs))
	for i, v := range vs {
		p, err := e.versionPosLocked(v)
		if err != nil {
			return nil, err
		}
		if plans[i], err = e.planLocked(p); err != nil {
			return nil, err
		}
	}
	return plans, nil
}

// spacesLocked returns, in segment-table order, the segments where any
// of the plans holds a slot, each a slot space whose bitmaps are the
// plans'. Caller holds e.mu.
func (e *Engine) spacesLocked(plans []*planEntry) []core.SlotSpace {
	heads := e.headsLocked()
	k := len(plans)
	live := make([]*bitmap.Bitmap, len(e.cat.Segs)*k)
	segs := make([]core.SpaceSeg, len(e.cat.Segs))
	spaces := make([]core.SlotSpace, 0, len(e.cat.Segs))
	for j, s := range e.cat.Segs {
		row, held := live[j*k:(j+1)*k:(j+1)*k], false
		for i, pl := range plans {
			row[i] = pl.slots(s.ID)
			held = held || row[i] != nil
		}
		if held {
			segs[j] = core.SpaceSeg{Segment: s.Segment, Frozen: !heads[s.ID]}
			spaces = append(spaces, core.SlotSpace{ID: s.ID, Live: row, Segs: segs[j : j+1]})
		}
	}
	return spaces
}

// InsertBatch implements core.Engine: "tuple inserts and updates are
// appended to the end of the segment file for the updated branch", one
// lock acquisition and one head lookup for the whole batch.
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
