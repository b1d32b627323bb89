package enginetest

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"decibel/internal/core"
	"decibel/internal/record"
	"decibel/internal/vf"
	"decibel/internal/vgraph"
)

// TestVFShrink fuzzes the version-first engine against the model with
// many small seeded workloads; on failure it prints a minimal replay
// trace. Version-first has the subtlest merge machinery (lineage
// intervals plus overrides), so it gets this dedicated shrinker on top
// of the cross-engine differential tests. Every branch head is checked
// after every operation, and after a merge the merge commit and both
// its parents too, so a wrong override shows even once later writes
// shadow it in the head.
func TestVFShrink(t *testing.T) {
	seeds := int64(40)
	if !testing.Short() {
		seeds = 500
	}
	for seed := int64(0); seed < seeds; seed++ {
		for _, ops := range []int{25, 50, 100} {
			trace, ok := tryVF(t, seed, ops)
			if !ok {
				t.Logf("seed=%d ops=%d FAILS; trace:", seed, ops)
				for _, line := range trace {
					t.Log(line)
				}
				t.FailNow()
			}
		}
	}
	t.Log("no small failures found")
}

func tryVF(t *testing.T, seed int64, ops int) ([]string, bool) {
	dir := t.TempDir()
	opt := core.Options{PageSize: 4096, PoolPages: 16}
	db, err := core.Open(dir, "", only(vf.Factory), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	schema := testSchema()
	if _, err := db.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	model := NewModel(schema)
	r := rand.New(rand.NewSource(seed))
	master, c0, err := db.Init("init")
	if err != nil {
		t.Fatal(err)
	}
	model.Init(master, c0)
	g := db.Graph()
	tbl, _ := db.Table("t")
	var trace []string
	branches := []*vgraph.Branch{master}
	commits := []*vgraph.Commit{c0}
	nextPK := int64(1)
	nextBranch := 1
	commit := func(op int, b vgraph.BranchID) {
		c, err := db.Commit(b, "c")
		if err != nil {
			t.Fatal(err)
		}
		model.Commit(c)
		commits = append(commits, c)
		trace = append(trace, fmt.Sprintf("op%d commit branch=%d -> c%d", op, b, c.ID))
	}

	diverges := func(name string, want state, scan func(func(*record.Record) bool) error) bool {
		missing, extra, differ := divergence(t, want, scan)
		if differ {
			trace = append(trace, fmt.Sprintf("DIVERGE %s missing=%v extra=%v", name, missing, extra))
		}
		return differ
	}
	check := func() bool {
		for _, br := range g.Branches() {
			scan := func(fn func(*record.Record) bool) error { return scanHead(tbl, br.ID, fn) }
			if diverges("branch="+br.Name, model.BranchState(br.ID), scan) {
				return false
			}
		}
		return true
	}
	checkMerge := func(mc *vgraph.Commit) bool {
		for _, id := range []vgraph.CommitID{mc.ID, mc.Parents[0], mc.Parents[1]} {
			c, _ := g.Commit(id)
			scan := func(fn func(*record.Record) bool) error { return scanCommit(tbl, c, fn) }
			if diverges(fmt.Sprintf("commit=c%d", id), model.CommitState(id), scan) {
				return false
			}
		}
		return true
	}

	for op := 0; op < ops; op++ {
		switch k := r.Intn(106); {
		case k >= 103:
			trace = append(trace, fmt.Sprintf("op%d reopen", op))
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if db, err = core.Open(dir, "", only(vf.Factory), opt); err != nil {
				t.Fatal(err)
			}
			g = db.Graph()
			tbl, _ = db.Table("t")
			model.Reopen(g)
		case k >= 100:
			trace = append(trace, fmt.Sprintf("op%d compact", op))
			if _, err := db.Compact(); err != nil {
				t.Fatal(err)
			}
		case k < 40:
			b := branches[r.Intn(len(branches))]
			rec := record.New(schema)
			rec.SetPK(nextPK)
			for i := 1; i < schema.NumColumns(); i++ {
				rec.Set(i, int64(op*100+i))
			}
			trace = append(trace, fmt.Sprintf("op%d insert pk=%d branch=%d", op, nextPK, b.ID))
			tbl.Insert(b.ID, rec)
			model.Insert(b.ID, rec)
			nextPK++
		case k < 55:
			b := branches[r.Intn(len(branches))]
			if pk, ok := anyKey(r, model.BranchState(b.ID)); ok {
				rec := record.New(schema)
				rec.SetPK(pk)
				for i := 1; i < schema.NumColumns(); i++ {
					rec.Set(i, int64(op*1000+i))
				}
				trace = append(trace, fmt.Sprintf("op%d update pk=%d branch=%d", op, pk, b.ID))
				tbl.Insert(b.ID, rec)
				model.Insert(b.ID, rec)
			}
		case k < 65:
			b := branches[r.Intn(len(branches))]
			if pk, ok := anyKey(r, model.BranchState(b.ID)); ok {
				trace = append(trace, fmt.Sprintf("op%d delete pk=%d branch=%d", op, pk, b.ID))
				tbl.Delete(b.ID, pk)
				model.Delete(b.ID, pk)
			}
		case k < 78:
			commit(op, branches[r.Intn(len(branches))].ID)
		case k < 90:
			var from vgraph.CommitID
			if r.Intn(3) == 0 {
				from = commits[r.Intn(len(commits))].ID
			} else {
				pb := branches[r.Intn(len(branches))]
				cur, _ := g.Branch(pb.ID)
				from = cur.Head
			}
			nb, err := db.Branch(fmt.Sprintf("b%d", nextBranch), from)
			if err != nil {
				t.Fatal(err)
			}
			fc, _ := g.Commit(from)
			model.Branch(nb, fc)
			branches = append(branches, nb)
			trace = append(trace, fmt.Sprintf("op%d branch %s from c%d (branch %d seq %d)", op, nb.Name, from, fc.Branch, fc.Seq))
			nextBranch++
		default:
			if len(branches) < 2 {
				continue
			}
			i, j := r.Intn(len(branches)), r.Intn(len(branches))
			if i == j {
				continue
			}
			kind := core.TwoWay
			if r.Intn(2) == 0 {
				kind = core.ThreeWay
			}
			prec := r.Intn(2) == 0
			mc, _, err := db.MergeContext(t.Context(), branches[i].Name, branches[j].Name, "m", kind, prec)
			if err != nil {
				t.Fatal(err)
			}
			model.Merge(g, branches[i].ID, branches[j].ID, mc, kind)
			commits = append(commits, mc)
			trace = append(trace, fmt.Sprintf("op%d merge into=%d other=%d kind=%v precFirst=%v -> c%d", op, branches[i].ID, branches[j].ID, kind, prec, mc.ID))
			if !checkMerge(mc) {
				return trace, false
			}
		}
		if !check() {
			return trace, false
		}
	}
	return trace, true
}

// divergence compares a version's scan with the model's state of it:
// whether they differ, and the keys the scan lacks and has extra.
func divergence(t *testing.T, want state, scan func(func(*record.Record) bool) error) (missing, extra []int64, differ bool) {
	t.Helper()
	got, gotPK := make(map[string]bool), make(map[int64]bool)
	if err := scan(func(rec *record.Record) bool { got[string(rec.Bytes())], gotPK[rec.PK()] = true, true; return true }); err != nil {
		t.Fatal(err)
	}
	if setsEqual(got, stateSet(want)) {
		return nil, nil, false
	}
	for pk := range want {
		if !gotPK[pk] {
			missing = append(missing, pk)
		}
	}
	for pk := range gotPK {
		if _, ok := want[pk]; !ok {
			extra = append(extra, pk)
		}
	}
	slices.Sort(missing)
	slices.Sort(extra)
	return missing, extra, true
}
