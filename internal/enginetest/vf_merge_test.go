package enginetest

import (
	"testing"

	"decibel/internal/core"
	"decibel/internal/record"
	"decibel/internal/vf"
	"decibel/internal/vgraph"
)

// vfScript drives one version-first database and the model through a
// fixed history, checking after every merge that each branch head, the
// merge commit and both its parents scan as the model has them.
type vfScript struct {
	t        *testing.T
	db       *core.Database
	tbl      *core.Table
	model    *Model
	branches map[string]*vgraph.Branch
	init     *vgraph.Commit
	val      int64
}

func newVFScript(t *testing.T) *vfScript {
	db := openDB(t, t.TempDir(), vf.Factory, core.Options{PageSize: 4096, PoolPages: 16})
	t.Cleanup(func() { db.Close() })
	s := &vfScript{t: t, db: db, model: NewModel(testSchema()), branches: map[string]*vgraph.Branch{}}
	if _, err := db.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	master, c0, err := db.Init("init")
	if err != nil {
		t.Fatal(err)
	}
	s.model.Init(master, c0)
	s.init = c0
	s.tbl, _ = db.Table("t")
	s.branches["master"] = master
	return s
}

// put inserts, or updates, pk on the branch with a value of its own.
func (s *vfScript) put(b string, pk int64) {
	s.val++
	rec := simpleRec(testSchema(), pk, s.val)
	if err := s.tbl.Insert(s.branches[b].ID, rec); err != nil {
		s.t.Fatal(err)
	}
	s.model.Insert(s.branches[b].ID, rec)
}

func (s *vfScript) delete(b string, pk int64) {
	if err := s.tbl.Delete(s.branches[b].ID, pk); err != nil {
		s.t.Fatal(err)
	}
	s.model.Delete(s.branches[b].ID, pk)
}

func (s *vfScript) commit(b string) *vgraph.Commit {
	c, err := s.db.Commit(s.branches[b].ID, "c")
	if err != nil {
		s.t.Fatal(err)
	}
	s.model.Commit(c)
	return c
}

func (s *vfScript) branch(name string, from *vgraph.Commit) {
	nb, err := s.db.Branch(name, from.ID)
	if err != nil {
		s.t.Fatal(err)
	}
	s.model.Branch(nb, from)
	s.branches[name] = nb
}

func (s *vfScript) merge(into, other string, kind core.MergeKind, precFirst bool) *vgraph.Commit {
	g := s.db.Graph()
	mc, _, err := s.db.MergeContext(s.t.Context(), into, other, "m", kind, precFirst)
	if err != nil {
		s.t.Fatal(err)
	}
	s.model.Merge(g, s.branches[into].ID, s.branches[other].ID, mc, kind)
	for _, br := range g.Branches() {
		scan := func(fn func(*record.Record) bool) error { return scanHead(s.tbl, br.ID, fn) }
		if missing, extra, differ := divergence(s.t, s.model.BranchState(br.ID), scan); differ {
			s.t.Errorf("after merging %s into %s: branch %s lacks %v, has extra %v", other, into, br.Name, missing, extra)
		}
	}
	for _, id := range []vgraph.CommitID{mc.ID, mc.Parents[0], mc.Parents[1]} {
		c, _ := g.Commit(id)
		scan := func(fn func(*record.Record) bool) error { return scanCommit(s.tbl, c, fn) }
		if missing, extra, differ := divergence(s.t, s.model.CommitState(id), scan); differ {
			s.t.Errorf("after merging %s into %s: commit %d lacks %v, has extra %v", other, into, id, missing, extra)
		}
	}
	return mc
}

// live says whether the model holds key 1 in the branch's head.
func (s *vfScript) live(b string) bool {
	_, ok := s.model.BranchState(s.branches[b].ID)[1]
	return ok
}

// TestVFMergeComposedLineage pins the two histories in which a
// version-first merge must settle a key neither side changed: the
// merged head's lineage, composed from both parents' and the LCA's,
// disagrees with Into's head on it. In "resurrected" the composition
// ranks key 1's old copy above the tombstone that killed it, though
// Into's head, Other's head and the LCA all lack the key; in "hidden"
// it ranks a tombstone above the copy all three hold. Both are the
// smallest histories TestVFShrink's seeds reduce to; each fails without
// the XOR of the pure scan against Into's head (MergeKeys.Diverged).
func TestVFMergeComposedLineage(t *testing.T) {
	t.Run("resurrected", func(t *testing.T) {
		s := newVFScript(t)
		s.put("master", 1)
		c1 := s.commit("master")
		s.branch("b1", c1)
		s.delete("b1", 1)
		c2 := s.commit("b1")
		s.put("master", 1)
		s.branch("b2", c2)
		// Both sides changed key 1; b2's deletion wins.
		s.merge("master", "b2", core.ThreeWay, false)
		s.branch("b3", s.commit("b1"))
		if s.live("b3") || s.live("master") {
			t.Fatal("key 1 is live on a side: the history lost its shape")
		}
		// Key 1 is dead in b3, in master and at their LCA, c2.
		s.merge("b3", "master", core.ThreeWay, true)
	})
	t.Run("hidden", func(t *testing.T) {
		s := newVFScript(t)
		s.put("master", 1)
		s.branch("b1", s.init)
		// b1 takes master's uncommitted copy of key 1.
		s.merge("b1", "master", core.ThreeWay, true)
		c1 := s.commit("master")
		s.branch("b2", c1)
		s.delete("master", 1)
		// master takes the copy back from b1.
		s.branch("b4", s.merge("master", "b1", core.TwoWay, false))
		if !s.live("b2") || !s.live("b4") {
			t.Fatal("key 1 is dead on a side: the history lost its shape")
		}
		// b2, b4 and their LCA, c1, hold the same copy of key 1.
		s.merge("b2", "b4", core.TwoWay, true)
	})
}
