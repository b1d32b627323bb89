package core

import (
	"fmt"

	"decibel/internal/bitmap"
	"decibel/internal/record"
	"decibel/internal/store"
	"decibel/internal/vgraph"
)

// Merge is one merge in progress: what Database.Merge resolves once and
// hands to every relation's engine. The conflict policy of Section
// 2.2.3 lives in Resolve and nowhere else; an engine only says which
// keys to look at and where their copies are (MergeKey) and what an
// outcome does to its storage (MergeTarget).
type Merge struct {
	Into, Other vgraph.BranchID
	// Commit is the merge commit, already in the graph; records are
	// compared and merged under the schema of its SchemaVer.
	Commit *vgraph.Commit
	// LCA is the lowest common ancestor of Commit's two parents.
	LCA *vgraph.Commit
	// Stats accumulates over the relations merged so far. Resolve counts
	// Conflicts, ChangedA, ChangedB and Materialized; DiffBytes and
	// TuplesScanned measure what an engine read, so engines count those.
	Stats MergeStats

	kind MergeKind
}

// NewMerge prepares the merge that mc commits, finding its LCA.
func NewMerge(g *vgraph.Graph, into, other vgraph.BranchID, mc *vgraph.Commit, kind MergeKind) (*Merge, error) {
	lca, ok := g.Commit(g.LCA(mc.Parents[0], mc.Parents[1]))
	if !ok {
		return nil, fmt.Errorf("core: merge of commits %d and %d has no common ancestor", mc.Parents[0], mc.Parents[1])
	}
	return &Merge{Into: into, Other: other, Commit: mc, LCA: lca, kind: kind}, nil
}

// MergeKey is what an engine knows about one key: where the copy live
// in Into's head (A), in Other's head (B) and at the LCA is stored,
// store.NoPos where the version has none. A version holds at most one
// copy of a key, so a side changed the key since the LCA exactly when
// its position differs from the LCA's.
type MergeKey struct {
	PK        int64
	A, B, LCA store.Pos
}

// MergeTarget is one relation's storage during a merge. Resolve calls
// ReadAt only for keys both sides changed, and then exactly one of
// Adopt, Drop and Materialize for every key it is given.
type MergeTarget interface {
	// ReadAt returns the record stored at p under the merge commit's
	// schema.
	ReadAt(p store.Pos) (*record.Record, error)
	// Adopt makes the existing copy at p (k.A or k.B) Into's copy of the
	// key. No record is written: both branches then hold the same copy.
	Adopt(k MergeKey, p store.Pos)
	// Drop leaves Into without the key.
	Drop(k MergeKey)
	// Materialize stores rec, which neither side holds, as Into's copy.
	Materialize(k MergeKey, rec *record.Record) error
}

// Resolve decides the outcome of one key and applies it to t. A key
// only Other changed takes Other's state; a key only Into changed, or
// neither (version-first hands those in, because composing two lineages
// can resurrect them), keeps Into's. A key both changed is a tuple-level
// two-way merge — the precedence branch's record or deletion wins
// whole, and differing outcomes are a conflict — or a field-level
// three-way merge against the LCA's record.
func (m *Merge) Resolve(t MergeTarget, k MergeKey) error {
	changedA, changedB := k.A != k.LCA, k.B != k.LCA
	if changedA {
		m.Stats.ChangedA++
	}
	if changedB {
		m.Stats.ChangedB++
	}
	if !changedA || !changedB {
		side := k.A
		if changedB {
			side = k.B
		}
		take(t, k, side)
		return nil
	}
	recA, err := readAt(t, k.A)
	if err != nil {
		return err
	}
	recB, err := readAt(t, k.B)
	if err != nil {
		return err
	}
	if m.kind == TwoWay {
		if (recA == nil) != (recB == nil) || (recA != nil && !recA.Equal(recB)) {
			m.Stats.Conflicts++
		}
		side := k.B
		if m.Commit.PrecedenceFirst {
			side = k.A
		}
		take(t, k, side)
		return nil
	}
	base, err := readAt(t, k.LCA)
	if err != nil {
		return err
	}
	res := record.Merge3(base, recA, recB, m.Commit.PrecedenceFirst)
	if res.Conflict {
		m.Stats.Conflicts++
	}
	switch {
	case res.Deleted:
		t.Drop(k)
	case recA != nil && res.Record.Equal(recA):
		t.Adopt(k, k.A)
	case recB != nil && res.Record.Equal(recB):
		t.Adopt(k, k.B)
	default:
		m.Stats.Materialized++
		return t.Materialize(k, res.Record)
	}
	return nil
}

// ChangedKeys names a merge's keys for the engines that keep liveness
// as slot bitmaps (tuple-first, hybrid): per key, the LCA's copy — the
// changed slot that was live there, if any (see Changed).
type ChangedKeys map[int64]store.Pos

// saw records one changed slot, p, which holds a copy of key pk: the
// LCA's copy when the slot was live at the LCA, the head's otherwise.
func (c ChangedKeys) saw(pk int64, p store.Pos, atLCA bool) {
	if atLCA {
		c[pk] = p
	} else if _, seen := c[pk]; !seen {
		c[pk] = store.NoPos
	}
}

// Versions returns the versions a merge's key discovery reads, in the
// order Changed indexes them: Into's head, Other's head, the LCA.
func (m *Merge) Versions() []Version {
	return []Version{{Branch: m.Into}, {Branch: m.Other}, {Commit: m.LCA}}
}

// Changed finds the keys either side changed since the LCA (Section
// 3.2): XORing a head's bitmap against the LCA's yields the slots live
// in exactly one of the two, and each such slot's record a changed key.
// spaces are an engine's slot spaces for m.Versions(), read under its
// lock. Each changed slot is read on its own rather than by the unit
// walk: the XOR is sparse, and the walk would visit every slot of each
// page it touches. It counts the records it reads in TuplesScanned and
// their bytes, at the merge commit's schema, in DiffBytes.
func (m *Merge) Changed(hist *record.History, spaces []SlotSpace) (ChangedKeys, error) {
	recSize := int64(hist.VisibleAt(m.Commit.SchemaVer).RecordSize())
	changed := make(ChangedKeys)
	for side := 0; side < 2; side++ {
		for i := range spaces {
			sp := &spaces[i]
			head, lca := sp.Live[side], sp.Live[2]
			if head == nil && lca == nil {
				continue
			}
			lca = orEmpty(lca)
			segs, seg := sp.Segs, -1
			var buf []byte
			var err error
			bitmap.Xor(orEmpty(head), lca).ForEach(func(slot int) bool {
				// Slots ascend, so the segment holding one only moves forward.
				j := max(seg, 0)
				for j+1 < len(segs) && int64(slot) >= segs[j+1].Base {
					j++
				}
				if j != seg {
					seg, buf = j, make([]byte, segs[j].Schema.RecordSize())
				}
				if err = segs[j].File.Read(int64(slot)-segs[j].Base, buf); err != nil {
					return false
				}
				m.Stats.TuplesScanned++
				m.Stats.DiffBytes += recSize
				changed.saw(record.PKOf(buf), store.Pos{Seg: sp.ID, Slot: int64(slot)}, lca.Get(slot))
				return true
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return changed, nil
}

// ResolveChanged resolves every key of c. live returns where a branch
// head's copy of a key is, store.NoPos when it has none.
func (m *Merge) ResolveChanged(t MergeTarget, c ChangedKeys, live func(b vgraph.BranchID, pk int64) store.Pos) error {
	for pk, lca := range c {
		k := MergeKey{PK: pk, A: live(m.Into, pk), B: live(m.Other, pk), LCA: lca}
		if err := m.Resolve(t, k); err != nil {
			return err
		}
	}
	return nil
}

// take gives Into the state one side holds: its copy, or no copy.
func take(t MergeTarget, k MergeKey, side store.Pos) {
	if side == store.NoPos {
		t.Drop(k)
	} else {
		t.Adopt(k, side)
	}
}

// readAt reads the record at p, nil when the version has no copy.
func readAt(t MergeTarget, p store.Pos) (*record.Record, error) {
	if p == store.NoPos {
		return nil, nil
	}
	return t.ReadAt(p)
}
