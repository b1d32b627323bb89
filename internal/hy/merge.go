package hy

import (
	"decibel/internal/core"
	"decibel/internal/record"
	"decibel/internal/store"
)

// Merge implements core.Engine for the hybrid scheme (Section 3.4):
// "as in tuple-first, the segment bitmaps can be leveraged (also
// requiring the lowest common ancestor commit) to determine where the
// conflicts are within the segment" — per segment, each head's local
// bitmap XORed against the LCA's names the changed slots, their records
// the changed keys (core's Merge.Changed). What becomes of each key is
// decided in core (MergeKeys.Resolve); here an adopted record is marked
// live in the merged branch's bitmap within its containing segment,
// "creating new bitmaps for the branch within a segment if necessary",
// and a resolved record neither side holds is appended to the merged
// branch's head segment.
func (e *Engine) Merge(m *core.Merge) error {
	e.mu.Lock()
	defer e.mu.Unlock()

	spaces, err := e.spacesLocked(m.Versions())
	if err != nil {
		return err
	}
	keys, err := m.Changed(e.hist, spaces)
	if err != nil {
		return err
	}

	// Materialized results land in the head segment, rotated first if the
	// merge commit's schema has outgrown it.
	head, err := e.writeHeadLocked(m.Into)
	if err != nil {
		return err
	}
	if err := keys.Resolve(&mergeTarget{e: e, m: m, head: head}); err != nil {
		return err
	}
	return e.commitLocked(m.Commit)
}

// mergeTarget is the segments and the merged branch's local bitmaps as
// core.MergeTarget. Caller holds e.mu.
type mergeTarget struct {
	e    *Engine
	m    *core.Merge
	head *hseg
}

func (t *mergeTarget) Drop(k core.MergeKey) {
	if k.A != store.NoPos {
		t.e.clearLive(t.m.Into, k.A)
	}
}

func (t *mergeTarget) Adopt(k core.MergeKey, p pos) {
	if p != k.A {
		t.Drop(k)
		t.e.setLive(t.m.Into, t.e.byID[p.Seg], p.Slot)
	}
}

func (t *mergeTarget) Materialize(k core.MergeKey, rec *record.Record) error {
	slot, err := t.e.st.Append(t.head.Segment, rec)
	if err != nil {
		return err
	}
	p := pos{Seg: t.head.ID, Slot: slot}
	t.e.vers.Push(k.PK, p)
	t.Adopt(k, p)
	return nil
}
