package core_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"decibel/internal/bitmap"
	"decibel/internal/core"
	"decibel/internal/enginetest"
	"decibel/internal/heap"
	"decibel/internal/record"
	"decibel/internal/store"
	"decibel/internal/vgraph"
)

// fakeTarget is the merged branch's key → position table over a map of
// stored copies. It records what Resolve asked of it, and with which
// key.
type fakeTarget struct {
	copies   map[store.Pos]*record.Record
	into     map[int64]store.Pos
	keys     map[int64]core.MergeKey
	outcomes map[int64][]string
}

func newFakeTarget() *fakeTarget {
	return &fakeTarget{copies: map[store.Pos]*record.Record{}, into: map[int64]store.Pos{},
		keys: map[int64]core.MergeKey{}, outcomes: map[int64][]string{}}
}

func (t *fakeTarget) Adopt(k core.MergeKey, p store.Pos) {
	side := "adopt B"
	if p == k.A {
		side = "keep A"
	} else if p != k.B {
		side = fmt.Sprintf("adopt %v, which is neither side's copy", p)
	}
	t.outcome(k, side)
	t.into[k.PK] = p
}

func (t *fakeTarget) Drop(k core.MergeKey) {
	t.outcome(k, "drop")
	delete(t.into, k.PK)
}

func (t *fakeTarget) Materialize(k core.MergeKey, rec *record.Record) error {
	t.outcome(k, "materialize")
	p := store.Pos{Seg: 9, Slot: k.PK}
	t.copies[p] = rec
	t.into[k.PK] = p
	return nil
}

func (t *fakeTarget) outcome(k core.MergeKey, out string) {
	t.outcomes[k.PK] = append(t.outcomes[k.PK], out)
	t.keys[k.PK] = k
}

// countingFile counts the records read from a segment file, by key,
// while on is set.
type countingFile struct {
	store.SegFile
	on    bool
	reads map[int64]int
}

func (f *countingFile) Read(slot int64, dst []byte) error {
	err := f.SegFile.Read(slot, dst)
	if err == nil && f.on {
		f.reads[record.PKOf(dst)]++
	}
	return err
}

// space is one slot space of a fake engine: a segment file and the
// slots each of a merge's versions holds there.
type space struct {
	id   int32
	seg  *store.Segment
	file *countingFile
	live []*bitmap.Bitmap
}

func newSpace(t *testing.T, st *store.Store, id int32, versions int, reads map[int64]int) *space {
	seg, err := st.Open(filepath.Join(t.TempDir(), fmt.Sprintf("seg%d", id)), store.SegMeta{Cols: st.Hist.PhysCols()}, -1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.File.Close() })
	f := &countingFile{SegFile: seg.File, reads: reads}
	seg.File = f
	sp := &space{id: id, seg: seg, file: f}
	for range versions {
		sp.live = append(sp.live, bitmap.New(0))
	}
	return sp
}

// put stores rec in the space, live in the versions named (indexes of
// live), and returns its position.
func (sp *space) put(t *testing.T, st *store.Store, rec *record.Record, in ...int) store.Pos {
	slot, err := st.Append(sp.seg, rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range in {
		sp.live[v].Set(int(slot))
	}
	return store.Pos{Seg: sp.id, Slot: slot}
}

func slotSpaces(sps ...*space) []core.SlotSpace {
	out := make([]core.SlotSpace, len(sps))
	for i, sp := range sps {
		out[i] = core.SlotSpace{ID: sp.id, Live: sp.live, Segs: []core.SpaceSeg{{Segment: sp.seg}}}
	}
	return out
}

// A side's state of a key relative to the base copy.
const (
	absent      = "absent"   // no copy (with a base: never possible, so it reads as deleted)
	same        = "=base"    // the base's own copy (without a base: absent)
	changed     = "changed"  // a new copy, column a rewritten
	disjoint    = "disjoint" // a new copy, column b rewritten (B only)
	sameContent = "same"     // a new copy with A's changed content (B only)
	deleted     = "deleted"
)

// TestResolveMatrix drives every combination of merge kind, precedence,
// each side's state and the base's presence through Merge.Changed and
// MergeKeys.Resolve, over a base segment, one segment per side and each
// version's slot bitmaps, and requires what enginetest.Model.Merge — the
// reference the engines are compared against — gives for the same
// inputs: the merged state, the conflict count, exactly one outcome per
// changed key and none for an unchanged one, each changed key found at
// its three positions, one diffed record per slot in the heads' XORs,
// and no record read by Resolve unless both sides changed.
func TestResolveMatrix(t *testing.T) {
	schema := record.MustSchema(
		record.Column{Name: "id", Type: record.Int64},
		record.Column{Name: "a", Type: record.Int64},
		record.Column{Name: "b", Type: record.Int64},
	)
	mk := func(pk, a, b int64) *record.Record {
		r := record.New(schema)
		r.SetPK(pk)
		r.Set(1, a)
		r.Set(2, b)
		return r
	}
	statesA := []string{absent, same, changed, deleted}
	statesB := []string{absent, same, changed, disjoint, sameContent, deleted}

	for _, kind := range []core.MergeKind{core.TwoWay, core.ThreeWay} {
		for _, precFirst := range []bool{true, false} {
			t.Run(fmt.Sprintf("%v/precedenceFirst=%v", kind, precFirst), func(t *testing.T) {
				g := vgraph.New()
				model := enginetest.NewModel(schema)
				master, c0, _ := g.Init("init")
				model.Init(master, c0)

				// Versions index the spaces' bitmaps as Merge.Versions
				// orders them: into's head, other's head, the LCA.
				const vA, vB, vLCA = 0, 1, 2
				hist := record.NewHistory(schema)
				st := store.New(heap.NewPool(64, 4096), hist)
				reads := map[int64]int{}
				base, segA, segB := newSpace(t, st, 0, 3, reads), newSpace(t, st, 1, 3, reads), newSpace(t, st, 2, 3, reads)

				ft := newFakeTarget()
				type key struct {
					core.MergeKey
					name   string
					sa, sb string
				}
				var keys []key
				for _, hasBase := range []bool{true, false} {
					for _, sa := range statesA {
						for _, sb := range statesB {
							pk := int64(len(keys) + 1)
							k := key{name: fmt.Sprintf("base=%v A=%s B=%s", hasBase, sa, sb), sa: sa, sb: sb,
								MergeKey: core.MergeKey{PK: pk, A: store.NoPos, B: store.NoPos, LCA: store.NoPos}}
							if hasBase {
								in := []int{vLCA}
								if sa == same {
									in = append(in, vA)
								}
								if sb == same {
									in = append(in, vB)
								}
								k.LCA = base.put(t, st, mk(pk, 1, 2), in...)
								ft.copies[k.LCA] = mk(pk, 1, 2)
								model.Insert(master.ID, mk(pk, 1, 2))
							}
							keys = append(keys, k)
						}
					}
				}
				c1, _ := g.NewCommit(master.ID, "base")
				model.Commit(c1)
				dev, _ := g.NewBranch("dev", c1.ID)
				model.Branch(dev, c1)

				// place gives one side its state of a key and returns where
				// its copy is.
				place := func(b vgraph.BranchID, sp *space, v int, k key, state string) store.Pos {
					var rec *record.Record
					switch state {
					case same:
						return k.LCA
					case absent, deleted:
						model.Delete(b, k.PK)
						return store.NoPos
					case changed:
						rec = mk(k.PK, 10+int64(sp.id), 2)
					case disjoint:
						rec = mk(k.PK, 1, 20)
					case sameContent:
						rec = mk(k.PK, 11, 2) // what A's "changed" writes
					}
					p := sp.put(t, st, rec, v)
					ft.copies[p] = rec
					model.Insert(b, rec)
					return p
				}
				var wantDiff int64
				xorSlots := func(head, lca store.Pos) int64 {
					if head == lca {
						return 0
					}
					n := int64(0)
					for _, p := range []store.Pos{head, lca} {
						if p != store.NoPos {
							n++
						}
					}
					return n
				}
				for i := range keys {
					k := &keys[i]
					k.A = place(master.ID, segA, vA, *k, k.sa)
					k.B = place(dev.ID, segB, vB, *k, k.sb)
					if k.A != store.NoPos {
						ft.into[k.PK] = k.A
					}
					wantDiff += (xorSlots(k.A, k.LCA) + xorSlots(k.B, k.LCA)) * int64(schema.RecordSize())
				}

				mc, _ := g.NewMergeCommit(master.ID, dev.ID, "merge", precFirst)
				m, err := core.NewMerge(g, master.ID, dev.ID, mc, kind)
				if err != nil {
					t.Fatal(err)
				}
				if m.LCA.ID != c1.ID {
					t.Fatalf("LCA is commit %d, want %d", m.LCA.ID, c1.ID)
				}
				found, err := m.Changed(hist, slotSpaces(base, segA, segB))
				if err != nil {
					t.Fatal(err)
				}
				for _, sp := range []*space{base, segA, segB} {
					sp.file.on = true
				}
				if err := found.Resolve(ft); err != nil {
					t.Fatal(err)
				}
				wantConflicts := model.Merge(g, master.ID, dev.ID, mc, kind)
				if m.Stats.Conflicts != wantConflicts {
					t.Errorf("conflicts = %d, model says %d", m.Stats.Conflicts, wantConflicts)
				}
				if m.Stats.DiffBytes != wantDiff {
					t.Errorf("diff bytes = %d, want %d", m.Stats.DiffBytes, wantDiff)
				}

				want := model.BranchState(master.ID)
				var changedA, changedB, materialized int
				for _, k := range keys {
					ca, cb := k.A != k.LCA, k.B != k.LCA
					out := ft.outcomes[k.PK]
					if !ca && !cb {
						if len(out) != 0 {
							t.Errorf("%s: outcomes %v for a key neither side changed", k.name, out)
						}
					} else if len(out) != 1 {
						t.Errorf("%s: outcomes %v, want exactly one", k.name, out)
						continue
					} else if got := ft.keys[k.PK]; got != k.MergeKey {
						t.Errorf("%s: found %+v, want %+v", k.name, got, k.MergeKey)
					}
					var got string
					if p, ok := ft.into[k.PK]; ok {
						got = string(ft.copies[p].Bytes())
					}
					if got != want[k.PK] {
						t.Errorf("%s: %v left %x, model has %x", k.name, out, got, want[k.PK])
					}
					if ca {
						changedA++
					}
					if cb {
						changedB++
					}
					if !(ca && cb) && reads[k.PK] != 0 {
						t.Errorf("%s: %d record reads for a key at most one side changed", k.name, reads[k.PK])
					}
					if len(out) == 0 {
						continue
					}
					switch {
					case !cb && out[0] != "keep A" && !(k.A == store.NoPos && out[0] == "drop"):
						t.Errorf("%s: %s, want into's state kept", k.name, out[0])
					case cb && !ca && out[0] != "adopt B" && !(k.B == store.NoPos && out[0] == "drop"):
						t.Errorf("%s: %s, want other's state taken", k.name, out[0])
					}
					if out[0] == "materialize" {
						materialized++
					}
				}
				if st := m.Stats; st.ChangedA != changedA || st.ChangedB != changedB || st.Materialized != materialized {
					t.Errorf("stats changedA/changedB/materialized = %d/%d/%d, want %d/%d/%d",
						st.ChangedA, st.ChangedB, st.Materialized, changedA, changedB, materialized)
				}
				if kind == core.ThreeWay && materialized == 0 {
					t.Error("no key materialized: the disjoint-columns case did not auto-merge")
				}
			})
		}
	}
}

// TestResolveUnchangedKey is version-first's case: a key neither side
// changed whose copy differs between the merged head's pure scan and
// Into's head — Into's copy hidden, or a key resurrected — is handed in
// by MergeKeys.Diverged, keeps Into's state and counts nothing but its
// read; a changed key it meets stays as Changed found it.
func TestResolveUnchangedKey(t *testing.T) {
	g := vgraph.New()
	master, _, _ := g.Init("init")
	c1, _ := g.NewCommit(master.ID, "base")
	dev, _ := g.NewBranch("dev", c1.ID)
	mc, _ := g.NewMergeCommit(master.ID, dev.ID, "merge", false)
	m, err := core.NewMerge(g, master.ID, dev.ID, mc, core.ThreeWay)
	if err != nil {
		t.Fatal(err)
	}
	schema := record.MustSchema(record.Column{Name: "id", Type: record.Int64}, record.Column{Name: "a", Type: record.Int64})
	hist := record.NewHistory(schema)
	st := store.New(heap.NewPool(16, 4096), hist)
	rec := func(pk int64) *record.Record {
		r := record.New(schema)
		r.SetPK(pk)
		return r
	}

	// One segment read as [into, other, LCA] for Changed: key 3 is one
	// only other changed.
	reads := map[int64]int{}
	sp := newSpace(t, st, 0, 3, reads)
	old3 := sp.put(t, st, rec(3), 0, 2)
	new3 := sp.put(t, st, rec(3), 1)
	found, err := m.Changed(hist, slotSpaces(sp))
	if err != nil {
		t.Fatal(err)
	}

	// The same segment read as [pure, into] for Diverged: the pure scan
	// hides into's copy of key 1, resurrects key 2, and holds other's
	// copy of key 3 where into holds the LCA's.
	sp.live = []*bitmap.Bitmap{bitmap.New(0), bitmap.New(0)}
	sp.live[0].Set(int(new3.Slot))
	sp.live[1].Set(int(old3.Slot))
	p1 := sp.put(t, st, rec(1), 1)
	p2 := sp.put(t, st, rec(2), 0)
	only, err := found.Diverged(slotSpaces(sp))
	if err != nil {
		t.Fatal(err)
	}
	if len(only) != 2 || only[2] != p2 || only[3] != new3 {
		t.Errorf("pure-only copies %v, want key 2 at %v and key 3 at %v", only, p2, new3)
	}
	if m.Stats.TuplesScanned != 6 {
		t.Errorf("%d records read finding the keys, want 6", m.Stats.TuplesScanned)
	}
	m.Stats.TuplesScanned = 0
	sp.file.on = true
	ft := newFakeTarget()
	if err := found.Resolve(ft); err != nil {
		t.Fatal(err)
	}
	for pk, w := range map[int64]struct {
		out string
		k   core.MergeKey
	}{
		1: {"keep A", core.MergeKey{PK: 1, A: p1, B: p1, LCA: p1}},
		2: {"drop", core.MergeKey{PK: 2, A: store.NoPos, B: store.NoPos, LCA: store.NoPos}},
		3: {"adopt B", core.MergeKey{PK: 3, A: old3, B: new3, LCA: old3}},
	} {
		if out := ft.outcomes[pk]; len(out) != 1 || out[0] != w.out || ft.keys[pk] != w.k {
			t.Errorf("key %d: outcomes %v for %+v, want one %s for %+v", pk, out, ft.keys[pk], w.out, w.k)
		}
	}
	if want := (core.MergeStats{ChangedB: 1, DiffBytes: 2 * int64(schema.RecordSize())}); m.Stats != want || len(reads) != 0 {
		t.Errorf("stats %+v and reads %v, want %+v and none: an unchanged key counted", m.Stats, reads, want)
	}
}

// memFile serves a segment's records from memory, so an allocation
// count is the reader's own and not the buffer pool's.
type memFile struct {
	store.SegFile
	recs [][]byte
}

func (f *memFile) Read(slot int64, dst []byte) error {
	copy(dst, f.recs[slot])
	return nil
}

// inMemory copies the space's records into a memFile and reads them
// from there.
func (sp *space) inMemory(t *testing.T) {
	f := &memFile{SegFile: sp.seg.File}
	for slot := range sp.seg.File.Count() {
		buf := make([]byte, sp.seg.File.RecordSize())
		if err := sp.seg.File.Read(slot, buf); err != nil {
			t.Fatal(err)
		}
		f.recs = append(f.recs, buf)
	}
	sp.seg.File = f
}

// nopTarget applies no outcome.
type nopTarget struct{}

func (nopTarget) Adopt(core.MergeKey, store.Pos)                  {}
func (nopTarget) Drop(core.MergeKey)                              {}
func (nopTarget) Materialize(core.MergeKey, *record.Record) error { return nil }

// TestResolveReadsWithoutAllocating checks that reading the records of
// keys both sides changed reuses the same buffers and records: the
// allocations of a Resolve do not grow with the number of such keys.
func TestResolveReadsWithoutAllocating(t *testing.T) {
	schema := record.MustSchema(record.Column{Name: "id", Type: record.Int64}, record.Column{Name: "a", Type: record.Int64})
	allocs := func(n int) float64 {
		g := vgraph.New()
		master, _, _ := g.Init("init")
		c1, _ := g.NewCommit(master.ID, "base")
		dev, _ := g.NewBranch("dev", c1.ID)
		mc, _ := g.NewMergeCommit(master.ID, dev.ID, "merge", true)
		m, err := core.NewMerge(g, master.ID, dev.ID, mc, core.TwoWay)
		if err != nil {
			t.Fatal(err)
		}
		hist := record.NewHistory(schema)
		st := store.New(heap.NewPool(16, 4096), hist)
		// Spaces of [into, other, LCA]: every key has a copy at the LCA
		// and a new one on each side, so both sides changed it.
		base, segA, segB := newSpace(t, st, 0, 3, nil), newSpace(t, st, 1, 3, nil), newSpace(t, st, 2, 3, nil)
		for pk := int64(1); pk <= int64(n); pk++ {
			for i, sp := range []*space{segA, segB, base} {
				rec := record.New(schema)
				rec.SetPK(pk)
				rec.Set(1, int64(i))
				sp.put(t, st, rec, i)
			}
		}
		for _, sp := range []*space{base, segA, segB} {
			sp.inMemory(t)
		}
		found, err := m.Changed(hist, slotSpaces(base, segA, segB))
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(5, func() {
			if err := found.Resolve(nopTarget{}); err != nil {
				t.Fatal(err)
			}
		})
		if m.Stats.Conflicts == 0 {
			t.Fatal("no conflict: the keys' records were not read")
		}
		return got
	}
	if few, many := allocs(10), allocs(200); many > few {
		t.Errorf("Resolve allocated %.0f times over 10 both-changed keys and %.0f over 200", few, many)
	}
}
