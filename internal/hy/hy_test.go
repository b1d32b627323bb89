package hy

import (
	"testing"

	"decibel/internal/core"
	"decibel/internal/heap"
	"decibel/internal/record"
	"decibel/internal/store"
	"decibel/internal/vgraph"
)

func testEnv(t *testing.T) (*core.Env, *vgraph.Graph) {
	t.Helper()
	g := vgraph.New()
	schema := record.MustSchema(
		record.Column{Name: "id", Type: record.Int64},
		record.Column{Name: "v", Type: record.Int64},
	)
	return &core.Env{
		Dir:    t.TempDir(),
		Schema: schema,
		Graph:  g,
		Pool:   heap.NewPool(16, 4096),
		Opt:    core.Options{PageSize: 4096, PoolPages: 16},
	}, g
}

func rec(s *record.Schema, pk, v int64) *record.Record {
	r := record.New(s)
	r.SetPK(pk)
	r.Set(1, v)
	return r
}

// TestSegmentLifecycle checks the branch operation's segment dance:
// the parent's head freezes into an internal segment and both branches
// get fresh heads (Section 3.4).
func TestSegmentLifecycle(t *testing.T) {
	env, g := testEnv(t)
	eng, err := Factory(env)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	e := eng.(*Engine)
	master, c0, _ := g.Init("init")
	if err := e.Init(master, c0); err != nil {
		t.Fatal(err)
	}
	if len(e.cat.Segs) != 1 {
		t.Fatalf("segments after init = %d", len(e.cat.Segs))
	}
	oldHead := e.headSeg[master.ID]

	e.InsertBatch(master.ID, []*record.Record{rec(env.Schema, 1, 1)})
	c1, _ := g.NewCommit(master.ID, "c1")
	e.Commit(c1)

	child, _ := g.NewBranch("dev", c1.ID)
	if err := e.Branch(child, c1); err != nil {
		t.Fatal(err)
	}
	// Three segments now: frozen old head + two fresh heads.
	if len(e.cat.Segs) != 3 {
		t.Fatalf("segments after branch = %d", len(e.cat.Segs))
	}
	if !e.cat.Segs[oldHead].Frozen {
		t.Fatal("old parent head not frozen")
	}
	if e.headSeg[master.ID] == oldHead || e.headSeg[child.ID] == oldHead {
		t.Fatal("head segments not replaced")
	}
	if e.headSeg[master.ID] == e.headSeg[child.ID] {
		t.Fatal("parent and child share a head segment")
	}
	// The frozen segment's bitmap carries both branches.
	s := e.cat.Segs[oldHead]
	if e.live[master.ID][oldHead] == nil || e.live[child.ID][oldHead] == nil {
		t.Fatal("internal segment missing a branch bitmap")
	}
	// Appends to the frozen file fail; inserts route to the new heads.
	if _, err := s.File.Append(rec(env.Schema, 9, 9).Bytes()); err == nil {
		t.Fatal("append to frozen segment succeeded")
	}
	if err := e.InsertBatch(master.ID, []*record.Record{rec(env.Schema, 2, 2)}); err != nil {
		t.Fatal(err)
	}
	if e.cat.Segs[e.headSeg[master.ID]].File.Count() != 1 {
		t.Fatal("insert did not land in the new head segment")
	}
}

// TestBranchSegmentSkipping verifies the global branch-segment relation
// lets scans skip segments without live records.
func TestBranchSegmentSkipping(t *testing.T) {
	env, g := testEnv(t)
	eng, _ := Factory(env)
	defer eng.Close()
	e := eng.(*Engine)
	master, c0, _ := g.Init("init")
	e.Init(master, c0)
	e.InsertBatch(master.ID, []*record.Record{rec(env.Schema, 1, 1)})
	c1, _ := g.NewCommit(master.ID, "c1")
	e.Commit(c1)
	dev, _ := g.NewBranch("dev", c1.ID)
	e.Branch(dev, c1)
	// dev deletes the only record: no segment holds live dev records.
	e.Delete(dev.ID, 1)
	units := func(b vgraph.BranchID) int {
		t.Helper()
		units, release, err := core.Partition(e, core.ScanRequest{Kind: core.ScanKindBranch, Branch: b})
		if err != nil {
			t.Fatal(err)
		}
		release()
		return len(units)
	}
	if n := units(dev.ID); n != 0 {
		t.Fatalf("dev still maps to %d segments", n)
	}
	// master unaffected: one segment with its record.
	if n := units(master.ID); n != 1 {
		t.Fatalf("master maps to %d segments", n)
	}
}

// TestCheckoutStartSeq verifies per-(branch, segment) history files
// start at the right commit seq and checkouts reconstruct per-segment
// bitmaps for any commit.
func TestCheckoutStartSeq(t *testing.T) {
	env, g := testEnv(t)
	eng, _ := Factory(env)
	defer eng.Close()
	e := eng.(*Engine)
	master, c0, _ := g.Init("init")
	e.Init(master, c0)

	e.InsertBatch(master.ID, []*record.Record{rec(env.Schema, 1, 1)})
	c1, _ := g.NewCommit(master.ID, "c1")
	e.Commit(c1)

	// Branch: master gets a new head segment whose history starts at
	// the *next* master commit.
	dev, _ := g.NewBranch("dev", c1.ID)
	e.Branch(dev, c1)
	e.InsertBatch(master.ID, []*record.Record{rec(env.Schema, 2, 2)})
	c2, _ := g.NewCommit(master.ID, "c2")
	e.Commit(c2)

	newHead := e.headSeg[master.ID]
	k := logKey{Branch: master.ID, Seg: newHead}
	if start, ok := e.startSeq[k]; !ok || start != c2.Seq {
		t.Fatalf("new head history startSeq = %d, want %d", start, c2.Seq)
	}
	// Checkout at c1: only the original segment contributes.
	snap, err := e.checkoutLocked(master.ID, c1.Seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 1 {
		t.Fatalf("c1 snapshot spans %d segments", len(snap))
	}
	// Checkout at c2: both.
	snap, err = e.checkoutLocked(master.ID, c2.Seq)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, bm := range snap {
		total += bm.Count()
	}
	if len(snap) != 2 || total != 2 {
		t.Fatalf("c2 snapshot: %d segments, %d live", len(snap), total)
	}
}

// TestMergeAdoptsIntoForeignSegment checks that adopting the other
// branch's record marks it live in the other branch's segment under
// the merged branch's bitmap ("creating new bitmaps for the child
// within a segment if necessary").
func TestMergeAdoptsIntoForeignSegment(t *testing.T) {
	env, g := testEnv(t)
	eng, _ := Factory(env)
	defer eng.Close()
	e := eng.(*Engine)
	master, c0, _ := g.Init("init")
	e.Init(master, c0)
	c1, _ := g.NewCommit(master.ID, "c1")
	e.Commit(c1)
	dev, _ := g.NewBranch("dev", c1.ID)
	e.Branch(dev, c1)
	e.InsertBatch(dev.ID, []*record.Record{rec(env.Schema, 7, 70)})
	c2, _ := g.NewCommit(dev.ID, "dev c")
	e.Commit(c2)

	devSeg := e.headSeg[dev.ID]
	mc, _ := g.NewMergeCommit(master.ID, dev.ID, "merge", true)
	m, err := core.NewMerge(g, master.ID, dev.ID, mc, core.ThreeWay)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Merge(m); err != nil {
		t.Fatal(err)
	}
	bm := e.live[master.ID][devSeg]
	if bm == nil || bm.Count() != 1 {
		t.Fatal("master bitmap missing in dev's segment after merge")
	}
	// The record is now visible in master without copying it.
	n := 0
	units, release, err := core.Partition(e, core.ScanRequest{Kind: core.ScanKindBranch, Branch: master.ID})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := core.NewScanSpecAt(e.hist, 0, nil, nil)
	core.RunUnitsSequential(units, spec, func(*record.Record, core.UnitAux) bool { n++; return true })
	release()
	if n != 1 {
		t.Fatalf("master sees %d records", n)
	}
	st, _ := e.Stats()
	if st.Records != 1 {
		t.Fatalf("merge copied records: %d stored", st.Records)
	}
}

// placements are the engine's two placements, by engine name.
var placements = []struct {
	name    string
	factory core.Factory
}{
	{"tuple-first", TupleFirstFactory},
	{"hybrid", Factory},
}

// TestLookupWalkLength pins the trade the shared version index makes: a
// lookup costs one liveness probe per version of that key newer than
// the branch's own. master rewrites one key 2000 times and resolves it
// in a single probe; a sibling forked before the first rewrite still
// gets its own version, after walking past master's; a key deleted on
// a branch resolves absent there and nowhere else. This is the hybrid
// placement; TestTupleFirstLookupWalkLength runs the same check on the
// tuple-first one.
func TestLookupWalkLength(t *testing.T) {
	checkLookupWalkLength(t, Factory)
}

// TestTupleFirstLookupWalkLength is TestLookupWalkLength on the
// tuple-first placement. The subtest is named for the bitmap layout the
// placement keeps: one liveness bitmap per branch.
func TestTupleFirstLookupWalkLength(t *testing.T) {
	t.Run("branch-oriented", func(t *testing.T) {
		checkLookupWalkLength(t, TupleFirstFactory)
	})
}

func checkLookupWalkLength(t *testing.T, factory core.Factory) {
	env, g := testEnv(t)
	eng, err := factory(env)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	e := eng.(*Engine)
	master, c0, _ := g.Init("init")
	e.Init(master, c0)
	e.InsertBatch(master.ID, []*record.Record{rec(env.Schema, 1, 0)})
	e.InsertBatch(master.ID, []*record.Record{rec(env.Schema, 2, 0)})
	c1, _ := g.NewCommit(master.ID, "c1")
	e.Commit(c1)
	sib, _ := g.NewBranch("sib", c1.ID)
	if err := e.Branch(sib, c1); err != nil {
		t.Fatal(err)
	}
	const updates = 2000
	for v := int64(1); v <= updates; v++ {
		if err := e.InsertBatch(master.ID, []*record.Record{rec(env.Schema, 1, v)}); err != nil {
			t.Fatal(err)
		}
	}
	e.Delete(sib.ID, 2)

	lookup := func(b vgraph.BranchID, pk int64) (v int64, probes int, found bool) {
		found = e.vers.Find(pk, func(p pos) bool {
			probes++
			bm := e.live[b][p.Seg]
			return bm != nil && bm.Get(int(p.Slot))
		}) != store.NoPos
		buf, _, ok, err := e.LookupPK(core.Version{Branch: b}, pk)
		if err != nil || !ok || found != (buf != nil) {
			t.Fatalf("LookupPK(%d, %d): buf=%v served=%v err=%v, index found=%v", b, pk, buf != nil, ok, err, found)
		}
		if found {
			r, _ := record.FromBytes(env.Schema, buf)
			v = r.Get(1)
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

// TestUnknownBranchReadsEmpty: a branch the engine never registered has
// no bitmaps, and every read of it — a point lookup (served, not live),
// a head scan, either side of a diff, a member of a multi-branch scan —
// sees nothing live rather than panicking on the missing entry.
func TestUnknownBranchReadsEmpty(t *testing.T) {
	for _, pl := range placements {
		t.Run(pl.name, func(t *testing.T) {
			env, g := testEnv(t)
			eng, err := pl.factory(env)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			e := eng.(*Engine)
			master, c0, _ := g.Init("init")
			if err := e.Init(master, c0); err != nil {
				t.Fatal(err)
			}
			if err := e.InsertBatch(master.ID, []*record.Record{rec(env.Schema, 1, 1)}); err != nil {
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
		})
	}
}
