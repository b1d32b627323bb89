package tf

import (
	"decibel/internal/core"
	"decibel/internal/record"
	"decibel/internal/store"
)

// Merge implements core.Engine following Section 3.2: the LCA commit's
// bitmap is restored and XORed against both branch heads to find the
// slots, and through their records the keys, changed on each side
// (core's Merge.Changed). What becomes of each key is decided in core
// (MergeKeys.Resolve); here an outcome is a bit cleared and a bit set
// in the merged branch's column.
func (e *Engine) Merge(m *core.Merge) error {
	e.mu.Lock()
	defer e.mu.Unlock()

	// Materialized results need a tail extent at the merge's schema.
	if err := e.ensureExtentLocked(e.hist.NumPhysAt(m.Commit.SchemaVer)); err != nil {
		return err
	}
	sp, err := e.spaceLocked(m.Versions())
	if err != nil {
		return err
	}
	keys, err := m.Changed(e.hist, []core.SlotSpace{sp})
	if err != nil {
		return err
	}
	if err := keys.Resolve(&mergeTarget{e: e, m: m}); err != nil {
		return err
	}
	return e.commitLocked(m.Commit)
}

// mergeTarget is the heap and the merged branch's bitmap column as
// core.MergeTarget. Caller holds e.mu.
type mergeTarget struct {
	e *Engine
	m *core.Merge
}

func (t *mergeTarget) Drop(k core.MergeKey) {
	if k.A != store.NoPos {
		t.e.cols[t.m.Into].Clear(int(k.A.Slot))
	}
}

func (t *mergeTarget) Adopt(k core.MergeKey, p store.Pos) {
	if p != k.A {
		t.Drop(k)
		t.e.cols[t.m.Into].Set(int(p.Slot))
	}
}

// Materialize appends the merged record at the end of the heap, widened
// to the tail extent's physical layout.
func (t *mergeTarget) Materialize(k core.MergeKey, rec *record.Record) error {
	slot, err := t.e.appendLocked(rec)
	if err != nil {
		return err
	}
	t.e.vers.Push(k.PK, store.Pos{Slot: slot})
	t.Adopt(k, store.Pos{Slot: slot})
	return nil
}
