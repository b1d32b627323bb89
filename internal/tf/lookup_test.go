package tf

import (
	"testing"

	"decibel/internal/core"
	"decibel/internal/heap"
	"decibel/internal/record"
	"decibel/internal/store"
	"decibel/internal/vgraph"
)

// TestLookupWalkLength pins the trade the shared version index makes: a
// lookup costs one liveness probe per version of that key newer than
// the branch's own. master rewrites one key 2000 times and resolves it
// in a single probe; a sibling forked before the first rewrite still
// gets its own version, after walking past master's; a key deleted on
// a branch resolves absent there and nowhere else. The subtest is named
// for the bitmap layout the engine keeps.
func TestLookupWalkLength(t *testing.T) {
	t.Run("branch-oriented", testLookupWalkLength)
}

func testLookupWalkLength(t *testing.T) {
	g := vgraph.New()
	schema, e := newEngine(t, g)
	put := func(b vgraph.BranchID, pk, v int64) {
		t.Helper()
		r := record.New(schema)
		r.SetPK(pk)
		r.Set(1, v)
		if err := e.InsertBatch(b, []*record.Record{r}); err != nil {
			t.Fatal(err)
		}
	}
	master, c0, _ := g.Init("init")
	e.Init(master, c0)
	put(master.ID, 1, 0)
	put(master.ID, 2, 0)
	c1, _ := g.NewCommit(master.ID, "c1")
	e.Commit(c1)
	sib, _ := g.NewBranch("sib", c1.ID)
	if err := e.Branch(sib, c1); err != nil {
		t.Fatal(err)
	}
	const updates = 2000
	for v := int64(1); v <= updates; v++ {
		put(master.ID, 1, v)
	}
	e.Delete(sib.ID, 2)

	lookup := func(b vgraph.BranchID, pk int64) (v int64, probes int, found bool) {
		found = e.vers.Find(pk, func(p store.Pos) bool {
			probes++
			return e.cols[b].Get(int(p.Slot))
		}) != store.NoPos
		buf, _, ok, err := e.LookupPK(core.Version{Branch: b}, pk)
		if err != nil || !ok || found != (buf != nil) {
			t.Fatalf("LookupPK(%d, %d): buf=%v served=%v err=%v, index found=%v", b, pk, buf != nil, ok, err, found)
		}
		if found {
			rec, _ := record.FromBytes(schema, buf)
			v = rec.Get(1)
		}
		return v, probes, found
	}
	if v, probes, ok := lookup(master.ID, 1); !ok || v != updates || probes != 1 {
		t.Errorf("master: v=%d after %d probes (found=%v), want v=%d after 1", v, probes, ok, updates)
	}
	if v, probes, ok := lookup(sib.ID, 1); !ok || v != 0 || probes != updates+1 {
		t.Errorf("sibling: v=%d after %d probes (found=%v), want its own v=0 after %d", v, probes, ok, updates+1)
	}
	if _, _, ok := lookup(sib.ID, 2); ok {
		t.Error("key deleted on the sibling still resolves there")
	}
	if v, _, ok := lookup(master.ID, 2); !ok || v != 0 {
		t.Errorf("sibling's delete leaked into master: v=%d found=%v", v, ok)
	}
}

// newEngine opens a tuple-first engine over g on a two-column schema.
func newEngine(t *testing.T, g *vgraph.Graph) (*record.Schema, *Engine) {
	t.Helper()
	schema := record.MustSchema(
		record.Column{Name: "id", Type: record.Int64},
		record.Column{Name: "v", Type: record.Int64},
	)
	eng, err := Factory(&core.Env{
		Dir: t.TempDir(), Schema: schema, Graph: g, Pool: heap.NewPool(16, 4096),
		Opt: core.Options{PageSize: 4096, PoolPages: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return schema, eng.(*Engine)
}

// TestUnknownBranchReadsEmpty: a branch the engine never registered has
// no column, and every read of it — a point lookup, a head scan, either
// side of a diff, a member of a multi-branch scan — sees nothing live
// rather than panicking on the missing column.
func TestUnknownBranchReadsEmpty(t *testing.T) {
	g := vgraph.New()
	schema, e := newEngine(t, g)
	master, c0, _ := g.Init("init")
	if err := e.Init(master, c0); err != nil {
		t.Fatal(err)
	}
	r := record.New(schema)
	r.SetPK(1)
	if err := e.InsertBatch(master.ID, []*record.Record{r}); err != nil {
		t.Fatal(err)
	}
	const unknown vgraph.BranchID = 42

	buf, _, ok, err := e.LookupPK(core.Version{Branch: unknown}, 1)
	if err != nil || !ok || buf != nil {
		t.Fatalf("LookupPK on an unknown branch: buf=%v served=%v err=%v, want not live", buf != nil, ok, err)
	}
	spec, err := core.NewScanSpecAt(e.hist, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []core.ScanRequest{
		{Kind: core.ScanKindBranch, Branch: unknown},
		{Kind: core.ScanKindDiff, A: unknown, B: unknown},
		{Kind: core.ScanKindMulti, Branches: []vgraph.BranchID{unknown}},
	} {
		units, release, err := core.Partition(e, req)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		err = core.RunUnitsSequential(units, spec, func(*record.Record, core.UnitAux) bool { n++; return true })
		release()
		if err != nil || n != 0 {
			t.Errorf("scan kind %d over an unknown branch: %d rows, err %v; want none", req.Kind, n, err)
		}
	}
}
