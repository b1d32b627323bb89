package vf

import (
	"fmt"
	"sort"

	"decibel/internal/bitmap"
	"decibel/internal/core"
	"decibel/internal/record"
	"decibel/internal/store"
	"decibel/internal/vgraph"
)

// The read SPI (core.Engine.PartitionScan and LookupPK). Version-first
// has no branch bitmaps — liveness comes from resolving segment
// lineages — so a scan is partitioned by resolving the live set under
// the engine lock (shared ancestry once, through the interval cache;
// whole plans through the plan cache), grouping it by segment in id
// order with slots ascending, and making each segment's group one unit
// whose walk reads its slots page-run by page-run (one pin per touched
// page instead of one locked File.Read per record). The scan driver in
// core drops units whose zone maps exclude the spec's bounds and
// evaluates the spec on the raw record buffer. Multi-branch scans keep
// the paper's two-pass shape: the first pass is the partition, the
// second the units. Segments that are no branch's head never take
// another append and are frozen units the scan pool may fan out; branch
// heads stay on the caller's goroutine.

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

// segUnit builds the scan unit of one segment's live slots (ascending).
// Slots are read in page runs: one heap.File.Scan per contiguous group
// of listed slots on the same page, skipping the unlisted slots in
// between, so each touched page is pinned once.
func segUnit(s *segment, slots []int64, frozen bool, aux func(slot int64) core.UnitAux) core.ScanUnit {
	return core.ScanUnit{
		Frozen:   frozen,
		Zone:     s.Zone(),
		PhysCols: s.Cols,
		Aux:      aux,
		Walk: func(_ *core.ScanSpec, visit func(slot int64, buf []byte) bool) error {
			per := int64(s.File.PerPage())
			k, stopped := 0, false
			listed := func(slot int64, buf []byte) bool {
				if slot != slots[k] {
					return true
				}
				k++
				stopped = !visit(slot, buf)
				return !stopped
			}
			for i := 0; i < len(slots) && !stopped; {
				page := slots[i] / per
				j := i + 1
				for j < len(slots) && slots[j]/per == page {
					j++
				}
				k = i
				if err := s.File.Scan(slots[i], slots[j-1]+1, listed); err != nil {
					return err
				}
				i = j
			}
			return nil
		},
	}
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

// sortedGroups turns a per-segment slot bucketing into the canonical
// scan-plan form: one group per segment, ids ascending, slots
// ascending, mirroring the sequential emit order. This is the shape
// the plan cache retains, so the grouping and sorting cost is paid
// once per distinct position vector instead of once per scan.
func sortedGroups(bySeg map[segID][]int64) []planGroup {
	groups := make([]planGroup, 0, len(bySeg))
	for id, slots := range bySeg {
		sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
		groups = append(groups, planGroup{id: id, slots: slots})
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].id < groups[j].id })
	return groups
}

// unitsFor builds one scan unit per plan group. segs and heads were
// snapshotted under e.mu; head status is never cached with the plan —
// it is re-read per scan so a segment that froze since the plan was
// built becomes eligible for parallel fan-out (and never the reverse).
// auxFor, when non-nil, builds each segment's annotation func.
func unitsFor(groups []planGroup, segs []*segment, heads map[segID]bool, auxFor func(id segID) func(slot int64) core.UnitAux) []core.ScanUnit {
	units := make([]core.ScanUnit, 0, len(groups))
	for _, g := range groups {
		var aux func(slot int64) core.UnitAux
		if auxFor != nil {
			aux = auxFor(g.id)
		}
		units = append(units, segUnit(segs[g.id], g.slots, !heads[g.id], aux))
	}
	return units
}

// groupLive buckets a resolved live set by segment.
func groupLive(live map[int64]pos) map[segID][]int64 {
	bySeg := make(map[segID][]int64)
	for _, p := range live {
		bySeg[p.Seg] = append(bySeg[p.Seg], p.Slot)
	}
	return bySeg
}

// pinAll pins (under the engine lock, which the caller holds) every
// segment a partition's units reference and returns the release func
// handing the pins back; a concurrent compaction retires replaced
// files only after the pins drain.
func pinAll(segs []*segment, groupLists ...[]planGroup) func() {
	var pinned []*store.Segment
	seen := make(map[segID]bool)
	for _, gs := range groupLists {
		for _, g := range gs {
			if seen[g.id] {
				continue
			}
			seen[g.id] = true
			segs[g.id].Segment.Pin()
			pinned = append(pinned, segs[g.id].Segment)
		}
	}
	return func() {
		for _, sg := range pinned {
			sg.Unpin()
		}
	}
}

// planFor looks up the scan-plan cache (counting a hit as a lineage
// cache hit: the plan embeds the resolutions) and falls back to build,
// caching the result. build runs under e.mu, like the caller.
func (e *Engine) planFor(key string, build func() (*planEntry, error)) (*planEntry, error) {
	if e.pcache != nil {
		if en := e.pcache.get(key); en != nil {
			vfCacheHits.Add(1)
			return en, nil
		}
	}
	en, err := build()
	if err != nil {
		return nil, err
	}
	en.key = key
	if e.pcache != nil {
		e.pcache.put(en)
	}
	return en, nil
}

// singlePlanLocked returns the scan plan of one resolved position
// (branch-head and commit scans share it: same position, same plan).
// Caller holds e.mu.
func (e *Engine) singlePlanLocked(p pos) (*planEntry, error) {
	return e.planFor(planKey('s', p), func() (*planEntry, error) {
		live, err := e.resolveLive(p)
		if err != nil {
			return nil, err
		}
		return &planEntry{groups: sortedGroups(groupLive(live))}, nil
	})
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

// planLocked resolves the request's live set into a scan plan, exactly
// as every read of those versions resolves it. Caller holds e.mu.
func (e *Engine) planLocked(req core.ScanRequest) (*planEntry, error) {
	switch req.Kind {
	case core.ScanKindCommit:
		p, ok := e.commits[req.Commit.ID]
		if !ok {
			return nil, fmt.Errorf("vf: commit %d has no recorded offset", req.Commit.ID)
		}
		return e.singlePlanLocked(p)

	case core.ScanKindMulti:
		positions := make([]pos, len(req.Branches))
		for i, b := range req.Branches {
			p, err := e.headPosLocked(b)
			if err != nil {
				return nil, err
			}
			positions[i] = p
		}
		return e.planFor(planKey('m', positions...), func() (*planEntry, error) {
			union := make(map[pos]*bitmap.Bitmap)
			for i, p := range positions {
				live, err := e.resolveLive(p)
				if err != nil {
					return nil, err
				}
				for _, q := range live {
					m := union[q]
					if m == nil {
						m = bitmap.New(len(positions))
						union[q] = m
					}
					m.Set(i)
				}
			}
			bySeg := make(map[segID][]int64)
			for q := range union {
				bySeg[q.Seg] = append(bySeg[q.Seg], q.Slot)
			}
			return &planEntry{groups: sortedGroups(bySeg), member: union}, nil
		})

	case core.ScanKindDiff:
		pa, err := e.headPosLocked(req.A)
		if err != nil {
			return nil, err
		}
		pb, err := e.headPosLocked(req.B)
		if err != nil {
			return nil, err
		}
		return e.planFor(planKey('d', pa, pb), func() (*planEntry, error) {
			// The exclusive sides come from the lineage delta: only keys
			// claimed by the non-shared steps of either branch are
			// compared, so a diff's cost scales with what actually changed
			// since the fork instead of the full live-set size.
			onlyA, onlyB, err := e.diffLiveLocked(pa, pb)
			if err != nil {
				return nil, err
			}
			return &planEntry{
				groups:  sortedGroups(groupLive(onlyA)),
				groupsB: sortedGroups(groupLive(onlyB)),
			}, nil
		})
	}
	p, err := e.headPosLocked(req.Branch)
	if err != nil {
		return nil, err
	}
	return e.singlePlanLocked(p)
}

func inA(segID) func(int64) core.UnitAux {
	return func(int64) core.UnitAux { return core.UnitAux{InA: true} }
}

func inB(segID) func(int64) core.UnitAux {
	return func(int64) core.UnitAux { return core.UnitAux{} }
}

// PartitionScan implements core.Engine: the live set is resolved under
// the engine lock, then partitioned into per-segment units. Every
// segment a unit references is pinned until release is called.
func (e *Engine) PartitionScan(req core.ScanRequest) ([]core.ScanUnit, func(), error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	en, err := e.planLocked(req)
	if err != nil {
		return nil, nil, err
	}
	segs, heads := e.segs, e.headsLocked()
	release := pinAll(segs, en.groups, en.groupsB)
	switch req.Kind {
	case core.ScanKindMulti:
		// en.member is read-only once planned: per-pos bitmaps are safe
		// to hand out across units.
		member := en.member
		return unitsFor(en.groups, segs, heads, func(id segID) func(int64) core.UnitAux {
			return func(slot int64) core.UnitAux {
				return core.UnitAux{Member: member[pos{Seg: id, Slot: slot}]}
			}
		}), release, nil
	case core.ScanKindDiff:
		units := unitsFor(en.groups, segs, heads, inA)
		return append(units, unitsFor(en.groupsB, segs, heads, inB)...), release, nil
	}
	return unitsFor(en.groups, segs, heads, nil), release, nil
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
