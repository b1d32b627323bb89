package vf

import (
	"fmt"

	"decibel/internal/core"
	"decibel/internal/record"
	"decibel/internal/store"
)

// Merge implements core.Engine for the version-first scheme (Section
// 3.3): "merging involves creating a new branch, a new child segment,
// and branch points within each parent", with the recorded parent
// priority ordering future scans.
//
// Scan-order precedence alone cannot express every outcome: a key whose
// churn on one side nets out to "unchanged since the LCA" can still
// leave copies or tombstones in that side's post-LCA intervals that
// would wrongly outrank the other side's genuine change, and resolved
// three-way records can equal the non-precedence side. The merge
// therefore resolves the live sets of both heads and the LCA into
// primary-key hash tables (the paper's multi-pass approach), lets core
// decide each key's outcome (Merge.Resolve), and records an override —
// pointing at an existing record copy, preserving copy identity, or a
// deletion — for exactly the keys where a pure scan would disagree.
// Resolved records that match neither side are materialized into the
// new head segment, "which must be scanned before either of its
// parents".
func (e *Engine) Merge(m *core.Merge) error {
	e.mu.Lock()
	defer e.mu.Unlock()

	sA, cutA, err := e.headLocked(m.Into)
	if err != nil {
		return err
	}
	sB, cutB, err := e.headLocked(m.Other)
	if err != nil {
		return err
	}
	lcaPos, ok := e.commits[m.LCA.ID]
	if !ok {
		return fmt.Errorf("vf: merge LCA commit %d has no recorded offset", m.LCA.ID)
	}

	// First pass(es): materialize the live sets of both heads and the
	// LCA into primary-key hash tables (Section 3.3 merge).
	liveA, err := e.resolveLive(pos{Seg: sA.ID, Slot: cutA})
	if err != nil {
		return err
	}
	liveB, err := e.resolveLive(pos{Seg: sB.ID, Slot: cutB})
	if err != nil {
		return err
	}
	liveL, err := e.resolveLive(lcaPos)
	if err != nil {
		return err
	}

	// Create the merged head segment with its two branch points, at the
	// physical layout of the merge commit's schema epoch (the newer of
	// the two parents: rows inherited from the older side decode with
	// defaults filled).
	d, err := e.newSegmentLocked(m.Into, e.hist.NumPhysAt(m.Commit.SchemaVer))
	if err != nil {
		return err
	}
	d.hasLink = true
	d.link = link{
		ParentSeg: sA.ID, ParentSlot: cutA, ParentCommit: m.Commit.Parents[0],
		IsMerge:  true,
		OtherSeg: sB.ID, OtherSlot: cutB, OtherCommit: m.Commit.Parents[1],
		LCACommit: m.LCA.ID, PrecedenceFirst: m.Commit.PrecedenceFirst,
	}
	e.byBranch[m.Into] = d.ID
	sA.Freeze() // the old head becomes an internal, immutable file

	// What a pure scan of the new lineage would yield, before any
	// overrides or materialized records.
	scanOut, err := e.resolveLive(pos{Seg: d.ID, Slot: 0})
	if err != nil {
		return err
	}

	// Every key of the three live sets is resolved, changed or not: keys
	// dead in both heads and the LCA can still surface from the composed
	// lineage when chained merges re-rank an old live copy above the
	// tombstone that killed it, so every key the pure scan yields is
	// included too and such resurrections get a deletion override.
	t := &mergeTarget{e: e, m: m, d: d, scanOut: scanOut}
	recSize := int64(e.hist.VisibleAt(m.Commit.SchemaVer).RecordSize())
	seen := make(map[int64]struct{}, len(liveA)+len(liveB))
	for _, live := range []map[int64]pos{liveA, liveB, liveL, scanOut} {
		for pk := range live {
			if _, dup := seen[pk]; dup {
				continue
			}
			seen[pk] = struct{}{}
			k := core.MergeKey{PK: pk, A: posIn(liveA, pk), B: posIn(liveB, pk), LCA: posIn(liveL, pk)}
			if k.A != k.LCA {
				m.Stats.DiffBytes += recSize
			}
			if k.B != k.LCA {
				m.Stats.DiffBytes += recSize
			}
			if err := m.Resolve(t, k); err != nil {
				return err
			}
		}
	}
	// The pure-scan resolution of the new head (scanOut) was computed —
	// and possibly cached — before the override table above was filled;
	// drop every resolution rooted at the merged segment so later reads
	// re-resolve with the overrides in place.
	e.invalidateResolvedLocked(d.ID)
	return e.commitLocked(m.Commit)
}

// posIn returns the position a live set holds for pk, store.NoPos when
// it holds none.
func posIn(live map[int64]pos, pk int64) pos {
	if p, ok := live[pk]; ok {
		return p
	}
	return store.NoPos
}

// mergeTarget is the merged head segment d as core.MergeTarget: an
// outcome is an entry in d's override table, and only where the pure
// scan of the new lineage (scanOut) disagrees with it, or an append to
// d, whose own interval outranks everything below. Caller holds e.mu.
type mergeTarget struct {
	e       *Engine
	m       *core.Merge
	d       *segment
	scanOut map[int64]pos
}

// ReadAt reads under the merge commit's schema: the two sides and the
// LCA may be stored under different schema versions.
func (t *mergeTarget) ReadAt(p pos) (*record.Record, error) {
	t.m.Stats.TuplesScanned++
	return t.e.st.ReadAt(t.e.cat.Segs[p.Seg].Segment, p.Slot, t.m.Commit.SchemaVer)
}

func (t *mergeTarget) Adopt(k core.MergeKey, p pos) {
	if got, live := t.scanOut[k.PK]; !live || got != p {
		t.d.overrides = append(t.d.overrides, override{PK: k.PK, Seg: p.Seg, Slot: p.Slot})
	}
}

func (t *mergeTarget) Drop(k core.MergeKey) {
	if _, live := t.scanOut[k.PK]; live {
		t.d.overrides = append(t.d.overrides, override{PK: k.PK, Deleted: true})
	}
}

// Materialize appends to the merged head. Appended records rank above
// overrides, so none is needed.
func (t *mergeTarget) Materialize(_ core.MergeKey, rec *record.Record) error {
	return t.e.appendLocked(t.d, rec)
}
