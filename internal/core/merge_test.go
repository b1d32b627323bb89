package core_test

import (
	"fmt"
	"testing"

	"decibel/internal/core"
	"decibel/internal/enginetest"
	"decibel/internal/record"
	"decibel/internal/store"
	"decibel/internal/vgraph"
)

// fakeTarget is a relation as a map of stored copies plus the merged
// branch's key → position table. It records what Resolve asked of it.
type fakeTarget struct {
	copies   map[store.Pos]*record.Record
	into     map[int64]store.Pos
	reads    map[int64]int // record reads, by key
	outcomes map[int64][]string
}

func (t *fakeTarget) ReadAt(p store.Pos) (*record.Record, error) {
	rec, ok := t.copies[p]
	if !ok {
		return nil, fmt.Errorf("no copy at %v", p)
	}
	t.reads[rec.PK()]++
	return rec, nil
}

func (t *fakeTarget) Adopt(k core.MergeKey, p store.Pos) {
	side := "adopt B"
	if p == k.A {
		side = "keep A"
	} else if p != k.B {
		side = fmt.Sprintf("adopt %v, which is neither side's copy", p)
	}
	t.outcomes[k.PK] = append(t.outcomes[k.PK], side)
	t.into[k.PK] = p
}

func (t *fakeTarget) Drop(k core.MergeKey) {
	t.outcomes[k.PK] = append(t.outcomes[k.PK], "drop")
	delete(t.into, k.PK)
}

func (t *fakeTarget) Materialize(k core.MergeKey, rec *record.Record) error {
	t.outcomes[k.PK] = append(t.outcomes[k.PK], "materialize")
	p := store.Pos{Seg: 9, Slot: k.PK}
	t.copies[p] = rec
	t.into[k.PK] = p
	return nil
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
// each side's state and the base's presence through Merge.Resolve and
// requires what enginetest.Model.Merge — the reference the engines are
// compared against — gives for the same inputs: the merged state, the
// conflict count, exactly one outcome per key, and no record read unless
// both sides changed.
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

				ft := &fakeTarget{copies: map[store.Pos]*record.Record{}, into: map[int64]store.Pos{},
					reads: map[int64]int{}, outcomes: map[int64][]string{}}
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
								k.LCA = store.Pos{Seg: 0, Slot: pk}
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
				place := func(b vgraph.BranchID, seg int32, k key, state string) store.Pos {
					var rec *record.Record
					switch state {
					case same:
						return k.LCA
					case absent, deleted:
						model.Delete(b, k.PK)
						return store.NoPos
					case changed:
						rec = mk(k.PK, 10+int64(seg), 2)
					case disjoint:
						rec = mk(k.PK, 1, 20)
					case sameContent:
						rec = mk(k.PK, 11, 2) // what A's "changed" writes
					}
					p := store.Pos{Seg: seg, Slot: k.PK}
					ft.copies[p] = rec
					model.Insert(b, rec)
					return p
				}
				for i := range keys {
					k := &keys[i]
					k.A = place(master.ID, 1, *k, k.sa)
					k.B = place(dev.ID, 2, *k, k.sb)
					if k.A != store.NoPos {
						ft.into[k.PK] = k.A
					}
				}

				mc, _ := g.NewMergeCommit(master.ID, dev.ID, "merge", precFirst)
				m, err := core.NewMerge(g, master.ID, dev.ID, mc, kind)
				if err != nil {
					t.Fatal(err)
				}
				if m.LCA.ID != c1.ID {
					t.Fatalf("LCA is commit %d, want %d", m.LCA.ID, c1.ID)
				}
				for _, k := range keys {
					if err := m.Resolve(ft, k.MergeKey); err != nil {
						t.Fatalf("%s: %v", k.name, err)
					}
				}
				wantConflicts := model.Merge(g, master.ID, dev.ID, mc, kind)
				if m.Stats.Conflicts != wantConflicts {
					t.Errorf("conflicts = %d, model says %d", m.Stats.Conflicts, wantConflicts)
				}

				want := model.BranchState(master.ID)
				var changedA, changedB, materialized int
				for _, k := range keys {
					if out := ft.outcomes[k.PK]; len(out) != 1 {
						t.Errorf("%s: outcomes %v, want exactly one", k.name, out)
						continue
					}
					out := ft.outcomes[k.PK][0]
					var got string
					if p, ok := ft.into[k.PK]; ok {
						got = string(ft.copies[p].Bytes())
					}
					if got != want[k.PK] {
						t.Errorf("%s: %s left %x, model has %x", k.name, out, got, want[k.PK])
					}
					ca, cb := k.A != k.LCA, k.B != k.LCA
					if ca {
						changedA++
					}
					if cb {
						changedB++
					}
					if !(ca && cb) && ft.reads[k.PK] != 0 {
						t.Errorf("%s: %d record reads for a key only one side changed", k.name, ft.reads[k.PK])
					}
					switch {
					case !cb && out != "keep A" && !(k.A == store.NoPos && out == "drop"):
						t.Errorf("%s: %s, want into's state kept", k.name, out)
					case cb && !ca && out != "adopt B" && !(k.B == store.NoPos && out == "drop"):
						t.Errorf("%s: %s, want other's state taken", k.name, out)
					}
					if out == "materialize" {
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

// TestResolveUnchangedKey is version-first's resurrection case: a key
// neither side changed is still handed in, keeps into's copy and counts
// nothing.
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
	ft := &fakeTarget{into: map[int64]store.Pos{}, reads: map[int64]int{}, outcomes: map[int64][]string{}}
	p := store.Pos{Seg: 3, Slot: 4}
	for pk, at := range map[int64]store.Pos{1: p, 2: store.NoPos} {
		if err := m.Resolve(ft, core.MergeKey{PK: pk, A: at, B: at, LCA: at}); err != nil {
			t.Fatal(err)
		}
	}
	if out := ft.outcomes[1]; len(out) != 1 || out[0] != "keep A" {
		t.Errorf("live unchanged key: outcomes %v, want one keep A", out)
	}
	if out := ft.outcomes[2]; len(out) != 1 || out[0] != "drop" {
		t.Errorf("dead unchanged key: outcomes %v, want one drop", out)
	}
	if m.Stats != (core.MergeStats{}) || len(ft.reads) != 0 {
		t.Errorf("an unchanged key counted %+v and read %v", m.Stats, ft.reads)
	}
}
