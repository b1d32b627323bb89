package core

import (
	"fmt"
	"slices"

	"decibel/internal/bitmap"
	"decibel/internal/record"
	"decibel/internal/store"
	"decibel/internal/vgraph"
)

// Merge is one merge in progress: what Database.Merge resolves once and
// hands to every relation's engine. The conflict policy of Section
// 2.2.3 lives in Resolve and nowhere else, and so does the discovery of
// the keys it settles (Changed); an engine only says which slots the
// versions hold (its slot spaces for Versions) and what an outcome does
// to its storage (MergeTarget).
type Merge struct {
	Into, Other vgraph.BranchID
	// Commit is the merge commit, already in the graph; records are
	// compared and merged under the schema of its SchemaVer.
	Commit *vgraph.Commit
	// LCA is the lowest common ancestor of Commit's two parents.
	LCA *vgraph.Commit
	// Stats accumulates over the relations merged so far: Resolve counts
	// Conflicts, ChangedA, ChangedB and Materialized, and the reads of
	// discovery and Resolve count DiffBytes and TuplesScanned.
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

// MergeKey is one key a merge resolves and where the copy live in
// Into's head (A), in Other's head (B) and at the LCA is stored,
// store.NoPos where the version has none. A version holds at most one
// copy of a key, so a side changed the key since the LCA exactly when
// its position differs from the LCA's.
type MergeKey struct {
	PK        int64
	A, B, LCA store.Pos
}

// MergeTarget is one relation's storage during a merge. Resolve calls
// exactly one of Adopt, Drop and Materialize for every key.
type MergeTarget interface {
	// Adopt makes the existing copy at p (k.A or k.B) Into's copy of the
	// key. No record is written: both branches then hold the same copy.
	Adopt(k MergeKey, p store.Pos)
	// Drop leaves Into without the key.
	Drop(k MergeKey)
	// Materialize stores rec, which neither side holds, as Into's copy.
	Materialize(k MergeKey, rec *record.Record) error
}

// Versions returns the versions a merge's key discovery reads, in the
// order Changed indexes them: Into's head, Other's head, the LCA.
func (m *Merge) Versions() []Version {
	return []Version{{Branch: m.Into}, {Branch: m.Other}, {Commit: m.LCA}}
}

// MergeKeys is one relation's merge keys, as Changed finds them and
// Resolve settles them; segs are the segments of the spaces walked, by
// space id.
type MergeKeys struct {
	m    *Merge
	hist *record.History
	keys map[int64]MergeKey
	segs map[int32][]SpaceSeg

	// scratch is what read reuses for a key's A, B and LCA copies: the
	// stored record, its conversion to the merge commit's schema and
	// the record over it. Resolve retains none of them past the key.
	scratch [3]struct {
		buf, conv []byte
		rec       record.Record
	}
}

// Indexes of MergeKeys.scratch.
const (
	readA = iota
	readB
	readLCA
)

// Changed finds the keys either side changed since the LCA (Section
// 3.2): XORing a head's bitmap against the LCA's yields the slots live
// in exactly one of the two, and each such slot's record a changed key.
// spaces are an engine's slot spaces for m.Versions(), read under its
// lock. A side's position of a key is its slot in the side's XOR that
// the head holds; store.NoPos when the XOR shows only the LCA's copy;
// the LCA's position when the key is not in the XOR at all.
func (m *Merge) Changed(hist *record.History, spaces []SlotSpace) (*MergeKeys, error) {
	ks := &MergeKeys{m: m, hist: hist, keys: make(map[int64]MergeKey), segs: make(map[int32][]SpaceSeg, len(spaces))}
	in := make(map[int64]uint8) // bit s: side s's XOR showed the key
	recSize := int64(hist.VisibleAt(m.Commit.SchemaVer).RecordSize())
	for side := 0; side < 2; side++ {
		err := ks.xor(spaces, side, 2, recSize, func(pk int64, p store.Pos, atLCA bool) {
			k, ok := ks.keys[pk]
			if !ok {
				k = MergeKey{PK: pk, A: store.NoPos, B: store.NoPos, LCA: store.NoPos}
			}
			in[pk] |= 1 << side
			switch {
			case atLCA:
				k.LCA = p
			case side == 0:
				k.A = p
			default:
				k.B = p
			}
			ks.keys[pk] = k
		})
		if err != nil {
			return nil, err
		}
	}
	for pk, k := range ks.keys {
		if in[pk]&1 == 0 {
			k.A = k.LCA
		}
		if in[pk]&2 == 0 {
			k.B = k.LCA
		}
		ks.keys[pk] = k
	}
	return ks, nil
}

// Diverged adds the keys whose copies differ between spaces' Live[0]
// and Live[1] as keys neither side changed, each at Live[1]'s copy or
// none; Changed's keys stay as they are. Version-first passes its
// merged head's pure scan against Into's head: composing two lineages
// can resurrect a key or hide Into's copy. It returns the keys Live[0]
// holds at slots Live[1] lacks, and where.
func (ks *MergeKeys) Diverged(spaces []SlotSpace) (map[int64]store.Pos, error) {
	only := make(map[int64]store.Pos)
	err := ks.xor(spaces, 0, 1, 0, func(pk int64, p store.Pos, inRef bool) {
		k, known := ks.keys[pk]
		if !inRef {
			only[pk] = p
			p = store.NoPos
		}
		// A changed key's positions differ from the LCA's.
		if !known || (inRef && k.A == k.LCA && k.B == k.LCA) {
			ks.keys[pk] = MergeKey{PK: pk, A: p, B: p, LCA: p}
		}
	})
	return only, err
}

// xor hands saw the key of every slot set in exactly one of Live[h] and
// Live[r], with its position and whether Live[r] holds it. Each slot is
// read on its own rather than by the unit walk: the XOR is sparse, and
// the walk would visit every slot of each page it touches. A read
// counts in TuplesScanned, and size bytes in DiffBytes.
func (ks *MergeKeys) xor(spaces []SlotSpace, h, r int, size int64, saw func(pk int64, p store.Pos, inRef bool)) error {
	var buf []byte
	for i := range spaces {
		sp := &spaces[i]
		head, ref := sp.Live[h], sp.Live[r]
		if head == nil && ref == nil {
			continue
		}
		ks.segs[sp.ID], ref = sp.Segs, orEmpty(ref)
		var err error
		bitmap.Xor(orEmpty(head), ref).ForEach(func(slot int) bool {
			p := store.Pos{Seg: sp.ID, Slot: int64(slot)}
			if buf, _, err = ks.readSlot(p, buf); err != nil {
				return false
			}
			ks.m.Stats.DiffBytes += size
			saw(record.PKOf(buf), p, ref.Get(slot))
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// readSlot reads the record at p into buf, grown as needed, and returns
// it with the segment holding it. It counts in TuplesScanned.
func (ks *MergeKeys) readSlot(p store.Pos, buf []byte) ([]byte, SpaceSeg, error) {
	segs := ks.segs[p.Seg]
	j := len(segs) - 1
	for j > 0 && segs[j].Base > p.Slot {
		j--
	}
	sg := segs[j]
	n := sg.Schema.RecordSize()
	buf = slices.Grow(buf[:0], n)[:n]
	ks.m.Stats.TuplesScanned++
	return buf, sg, sg.File.Read(p.Slot-sg.Base, buf)
}

// Resolve decides the outcome of every key and applies it to t. A key
// only Other changed takes Other's state; a key only Into changed, or
// neither (Diverged's), keeps Into's. A key both changed is a
// tuple-level two-way merge — the precedence branch's record or
// deletion wins whole, and differing outcomes are a conflict — or a
// field-level three-way merge against the LCA's record; only these
// keys' records are read.
func (ks *MergeKeys) Resolve(t MergeTarget) error {
	for _, k := range ks.keys {
		if err := ks.resolve(t, k); err != nil {
			return err
		}
	}
	return nil
}

func (ks *MergeKeys) resolve(t MergeTarget, k MergeKey) error {
	m := ks.m
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
	recA, err := ks.read(readA, k.A)
	if err != nil {
		return err
	}
	recB, err := ks.read(readB, k.B)
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
	base, err := ks.read(readLCA, k.LCA)
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

// take gives Into the state one side holds: its copy, or no copy.
func take(t MergeTarget, k MergeKey, side store.Pos) {
	if side == store.NoPos {
		t.Drop(k)
	} else {
		t.Adopt(k, side)
	}
}

// read returns the record at p under the merge commit's schema — the
// sides and the LCA may be stored under different schema versions — and
// nil when the version has no copy. The record is scratch i's, valid
// until the next read into it.
func (ks *MergeKeys) read(i int, p store.Pos) (*record.Record, error) {
	if p == store.NoPos {
		return nil, nil
	}
	sc := &ks.scratch[i]
	buf, sg, err := ks.readSlot(p, sc.buf)
	if err != nil {
		return nil, err
	}
	sc.buf = buf
	cv, err := ks.hist.Conv(sg.Cols, ks.m.Commit.SchemaVer)
	if err != nil {
		return nil, err
	}
	n := cv.Out().RecordSize()
	sc.conv = slices.Grow(sc.conv[:0], n)[:n]
	if err := sc.rec.Reset(cv.Out(), cv.Convert(buf, sc.conv)); err != nil {
		return nil, err
	}
	return &sc.rec, nil
}
