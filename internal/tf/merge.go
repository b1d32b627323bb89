package tf

import (
	"decibel/internal/bitmap"
	"decibel/internal/core"
	"decibel/internal/record"
	"decibel/internal/store"
	"decibel/internal/vgraph"
)

// Merge implements core.Engine following Section 3.2: the LCA commit's
// bitmap is restored and XORed against both branch heads to find the
// slots, and through their records the keys, changed on each side. What
// becomes of each key is decided in core (Merge.Resolve); here an
// outcome is a bit cleared and a bit set in the merged branch's column.
func (e *Engine) Merge(m *core.Merge) error {
	e.mu.Lock()
	defer e.mu.Unlock()

	lcaLog, err := e.openLog(m.LCA.Branch)
	if err != nil {
		return err
	}
	lcaBM, err := lcaLog.Checkout(m.LCA.Seq)
	if err != nil {
		return err
	}
	// Rows from the two branches (and the LCA) may span schema
	// versions; resolve everything under the merge commit's schema and
	// make sure the tail extent can hold materialized results.
	epoch := m.Commit.SchemaVer
	if err := e.ensureExtentLocked(e.hist.NumPhysAt(epoch)); err != nil {
		return err
	}

	changed := make(core.ChangedKeys)
	r := e.reader()
	recSize := int64(e.hist.VisibleAt(epoch).RecordSize())
	for _, b := range []vgraph.BranchID{m.Into, m.Other} {
		x := bitmap.Xor(e.column(b), lcaBM)
		var err error
		x.ForEach(func(slot int) bool {
			var buf []byte
			if buf, _, err = r.read(int64(slot)); err != nil {
				return false
			}
			m.Stats.TuplesScanned++
			changed.Saw(record.PKOf(buf), store.Pos{Slot: int64(slot)}, lcaBM.Get(slot))
			return true
		})
		if err != nil {
			return err
		}
		m.Stats.DiffBytes += int64(x.Count()) * recSize
	}
	if err := m.ResolveChanged(&mergeTarget{e: e, m: m}, changed, e.livePos); err != nil {
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

func (t *mergeTarget) ReadAt(p store.Pos) (*record.Record, error) {
	x := t.e.extFor(p.Slot)
	t.m.Stats.TuplesScanned++
	return t.e.st.ReadAt(x.Segment, p.Slot-x.base, t.m.Commit.SchemaVer)
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
