package hy

import (
	"decibel/internal/bitmap"
	"decibel/internal/core"
	"decibel/internal/record"
	"decibel/internal/store"
)

// Merge implements core.Engine following Sections 3.2 and 3.4: the LCA
// commit's bitmaps are restored and XORed against both branch heads'
// — per segment in hybrid, "as in tuple-first, the segment bitmaps can
// be leveraged (also requiring the lowest common ancestor commit) to
// determine where the conflicts are within the segment" — to find the
// slots, and through their records the keys, changed on each side
// (core's Merge.Changed). What becomes of each key is decided in core
// (MergeKeys.Resolve); here an adopted record is marked live in the
// merged branch's bitmap of its slot space, "creating new bitmaps for
// the branch within a segment if necessary", and a resolved record
// neither side holds is appended where the merged branch writes.
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

	// Materialized results land where the merged branch writes, rotated
	// first if the merge commit's schema has outgrown it.
	seg, err := e.writeSegLocked(m.Into, e.hist.NumPhysAt(m.Commit.SchemaVer))
	if err != nil {
		return err
	}
	if err := keys.Resolve(&mergeTarget{e: e, live: e.branchLive(m.Into), seg: seg}); err != nil {
		return err
	}
	return e.commitLocked(m.Commit)
}

// mergeTarget is the segments and the merged branch's bitmaps as
// core.MergeTarget. Caller holds e.mu.
type mergeTarget struct {
	e    *Engine
	live map[segID]*bitmap.Bitmap // the merged branch's
	seg  *hseg                    // where the merged branch writes
}

func (t *mergeTarget) Drop(k core.MergeKey) {
	if k.A != store.NoPos {
		clearLive(t.live, k.A)
	}
}

func (t *mergeTarget) Adopt(k core.MergeKey, p pos) {
	if p != k.A {
		t.Drop(k)
		bitmapIn(t.live, p.Seg).Set(int(p.Slot))
	}
}

// Materialize appends the merged record where the merged branch
// writes, widened to that segment's physical layout.
func (t *mergeTarget) Materialize(k core.MergeKey, rec *record.Record) error {
	slot, err := t.e.st.Append(t.seg.Segment, rec)
	if err != nil {
		return err
	}
	p := t.e.at(t.seg, slot)
	t.e.vers.Push(k.PK, p)
	t.Adopt(k, p)
	return nil
}
