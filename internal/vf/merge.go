package vf

import (
	"decibel/internal/core"
	"decibel/internal/record"
)

// Merge implements core.Engine for the version-first scheme (Section
// 3.3): "merging involves creating a new branch, a new child segment,
// and branch points within each parent", with the recorded parent
// priority ordering future scans. Unlike the paper's multi-pass hash
// tables, the keys are found as for the bitmap engines: core XORs each
// head's scan plans against the LCA's (Merge.Changed). Scan-order
// precedence alone cannot express every outcome — composing the two
// lineages can resurrect a key or hide Into's copy, and a resolved
// record can be the non-precedence side's — so the merged head's pure
// scan is XORed against Into's head too (MergeKeys.Diverged), and an
// override, an existing copy or a deletion, is recorded for exactly the
// keys where the pure scan disagrees with the outcome. Records matching
// neither side go into the new head segment, "which must be scanned
// before either of its parents".
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
	plans, err := e.plansLocked(m.Versions())
	if err != nil {
		return err
	}
	keys, err := m.Changed(e.hist, e.spacesLocked(plans))
	if err != nil {
		return err
	}

	// Create the merged head segment with its two branch points, at the
	// physical layout of the merge commit's schema epoch (the newer of
	// the two parents: rows inherited from the older side decode with
	// defaults filled).
	d, err := e.linkHeadLocked(m.Into, e.hist.NumPhysAt(m.Commit.SchemaVer), link{
		ParentSeg: sA.ID, ParentSlot: cutA, ParentCommit: m.Commit.Parents[0],
		IsMerge:  true,
		OtherSeg: sB.ID, OtherSlot: cutB, OtherCommit: m.Commit.Parents[1],
		LCACommit: m.LCA.ID, PrecedenceFirst: m.Commit.PrecedenceFirst,
	})
	if err != nil {
		return err
	}
	sA.Freeze() // the old head becomes an internal, immutable file

	pure, err := e.planLocked(pos{Seg: d.ID})
	if err != nil {
		return err
	}
	only, err := keys.Diverged(e.spacesLocked([]*planEntry{pure, plans[0]}))
	if err != nil {
		return err
	}
	if err := keys.Resolve(&mergeTarget{e: e, d: d, pure: pure, only: only}); err != nil {
		return err
	}
	// The pure scan was resolved — and cached — before the override table
	// was filled; drop every resolution rooted at the merged segment so
	// later reads re-resolve with the overrides in place.
	e.invalidateResolvedLocked(d.ID)
	return e.commitLocked(m.Commit)
}

// mergeTarget is the merged head segment d as core.MergeTarget: an
// outcome is an override where the pure scan disagrees with it, or an
// append to d, which outranks everything below. The pure scan holds a
// key at only's slot, or at Into's copy if it holds that slot. Caller
// holds e.mu.
type mergeTarget struct {
	e    *Engine
	d    *segment
	pure *planEntry
	only map[int64]pos
}

func (t *mergeTarget) Adopt(k core.MergeKey, p pos) {
	if !t.pure.has(p) {
		t.d.overrides = append(t.d.overrides, override{PK: k.PK, Seg: p.Seg, Slot: p.Slot})
	}
}

func (t *mergeTarget) Drop(k core.MergeKey) {
	if _, held := t.only[k.PK]; held || t.pure.has(k.A) {
		t.d.overrides = append(t.d.overrides, override{PK: k.PK, Deleted: true})
	}
}

// Materialize appends to the merged head. Appended records rank above
// overrides, so none is needed.
func (t *mergeTarget) Materialize(_ core.MergeKey, rec *record.Record) error {
	return t.e.appendLocked(t.d, rec)
}
