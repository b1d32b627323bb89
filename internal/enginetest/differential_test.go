package enginetest

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"decibel/internal/bitmap"
	"decibel/internal/core"
	"decibel/internal/hy"
	"decibel/internal/record"
	"decibel/internal/vf"
	"decibel/internal/vgraph"
)

// harness drives one workload through all engines plus the model.
type harness struct {
	t      *testing.T
	schema *record.Schema
	dbs    map[string]*core.Database
	opens  map[string]func() (*core.Database, error) // reopen in place
	model  *Model
	graph  *vgraph.Graph // graph of the first db (all evolve identically)
	names  []string
}

func testSchema() *record.Schema {
	return record.MustSchema(
		record.Column{Name: "id", Type: record.Int64},
		record.Column{Name: "a", Type: record.Int64},
		record.Column{Name: "b", Type: record.Int64},
		record.Column{Name: "c", Type: record.Int32},
	)
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	h := &harness{t: t, schema: testSchema(), dbs: make(map[string]*core.Database),
		opens: make(map[string]func() (*core.Database, error)), model: NewModel(testSchema())}
	// Manual compaction, so compaction steps re-encode frozen segments.
	opt := core.Options{PageSize: 4096, PoolPages: 16,
		Compaction: true}
	for _, name := range []string{"tuple-first", "version-first", "hybrid"} {
		factory := hy.TupleFirstFactory
		switch name {
		case "version-first":
			factory = vf.Factory
		case "hybrid":
			factory = hy.Factory
		}
		dir := t.TempDir()
		h.opens[name] = func() (*core.Database, error) { return core.Open(dir, factory, opt) }
		db, err := h.opens[name]()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := db.CreateTable("t", h.schema); err != nil {
			t.Fatal(err)
		}
		h.dbs[name] = db
		h.names = append(h.names, name)
	}
	t.Cleanup(func() {
		for _, db := range h.dbs {
			db.Close()
		}
	})
	return h
}

func (h *harness) init() (*vgraph.Branch, *vgraph.Commit) {
	var master *vgraph.Branch
	var c0 *vgraph.Commit
	for _, name := range h.names {
		m, c, err := h.dbs[name].Init("init")
		if err != nil {
			h.t.Fatalf("%s init: %v", name, err)
		}
		master, c0 = m, c
	}
	h.graph = h.dbs[h.names[0]].Graph()
	h.model.Init(master, c0)
	return master, c0
}

func (h *harness) branch(name string, from vgraph.CommitID) *vgraph.Branch {
	var b *vgraph.Branch
	for _, n := range h.names {
		nb, err := h.dbs[n].Branch(name, from)
		if err != nil {
			h.t.Fatalf("%s branch: %v", n, err)
		}
		b = nb
	}
	fc, _ := h.graph.Commit(from)
	h.model.Branch(b, fc)
	return b
}

func (h *harness) commit(b vgraph.BranchID) *vgraph.Commit {
	var c *vgraph.Commit
	for _, n := range h.names {
		nc, err := h.dbs[n].Commit(b, "c")
		if err != nil {
			h.t.Fatalf("%s commit: %v", n, err)
		}
		c = nc
	}
	h.model.Commit(c)
	return c
}

func (h *harness) insert(b vgraph.BranchID, rec *record.Record) {
	for _, n := range h.names {
		tbl, _ := h.dbs[n].Table("t")
		if err := tbl.Insert(b, rec); err != nil {
			h.t.Fatalf("%s insert: %v", n, err)
		}
	}
	h.model.Insert(b, rec)
}

// reopen closes and reopens every engine; the model rolls uncommitted
// changes back with them.
func (h *harness) reopen() {
	for _, n := range h.names {
		if err := h.dbs[n].Close(); err != nil {
			h.t.Fatalf("%s close: %v", n, err)
		}
		db, err := h.opens[n]()
		if err != nil {
			h.t.Fatalf("%s reopen: %v", n, err)
		}
		h.dbs[n] = db
	}
	h.graph = h.dbs[h.names[0]].Graph()
	h.model.Reopen(h.graph)
}

// compact runs one compaction pass on every engine. It changes where
// records are stored, never what any version holds, so the model has
// nothing to do.
func (h *harness) compact() {
	for _, n := range h.names {
		if _, err := h.dbs[n].Compact(); err != nil {
			h.t.Fatalf("%s compact: %v", n, err)
		}
	}
}

// verifyLookups checks every engine's point lookup: for every branch
// head and every commit in the graph, and every key ever written —
// present, deleted, reinserted, adopted by a merge, inherited from a
// historical commit — LookupPK returns exactly the version the model
// holds there, or none.
func (h *harness) verifyLookups() {
	type version struct {
		name string
		v    core.Version
		want state
	}
	var versions []version
	for _, br := range h.graph.Branches() {
		versions = append(versions, version{br.Name, core.Version{Branch: br.ID}, h.model.BranchState(br.ID)})
		for _, c := range h.graph.CommitsOnBranch(br.ID) {
			versions = append(versions, version{fmt.Sprintf("commit %d", c.ID), core.Version{Commit: c}, h.model.CommitState(c.ID)})
		}
	}
	for _, n := range h.names {
		tbl, _ := h.dbs[n].Table("t")
		eng := tbl.Engine()
		for _, v := range versions {
			for _, pk := range h.model.Keys() {
				buf, _, ok, err := eng.LookupPK(v.v, pk)
				if err != nil || !ok {
					h.t.Fatalf("%s: LookupPK(%s, %d): served=%v err=%v", n, v.name, pk, ok, err)
				}
				if w, live := v.want[pk]; live != (buf != nil) || string(buf) != w {
					h.t.Errorf("%s: LookupPK(%s, %d) = %x, model has %x", n, v.name, pk, buf, w)
				}
			}
		}
	}
}

func (h *harness) delete(b vgraph.BranchID, pk int64) {
	for _, n := range h.names {
		tbl, _ := h.dbs[n].Table("t")
		if err := tbl.Delete(b, pk); err != nil {
			h.t.Fatalf("%s delete: %v", n, err)
		}
	}
	h.model.Delete(b, pk)
}

// merge merges on every engine and the model. The conflict count must be
// the model's; the counts of changed keys, materialized records and
// diffed bytes must agree across the engines (the model compares bytes
// where engines compare copies, so it has no say in those).
func (h *harness) merge(into, other vgraph.BranchID, kind core.MergeKind, precFirst bool) {
	var stats []core.MergeStats
	var mc *vgraph.Commit
	for _, n := range h.names {
		bi, _ := h.dbs[n].Graph().Branch(into)
		bo, _ := h.dbs[n].Graph().Branch(other)
		c, st, err := h.dbs[n].MergeContext(h.t.Context(), bi.Name, bo.Name, "m", kind, precFirst)
		if err != nil {
			h.t.Fatalf("%s merge: %v", n, err)
		}
		stats = append(stats, st)
		mc = c
	}
	want := h.model.Merge(h.graph, into, other, mc, kind)
	for i, n := range h.names {
		st, first := stats[i], stats[0]
		if st.Conflicts != want {
			h.t.Errorf("%s merge conflicts = %d, model says %d", n, st.Conflicts, want)
		}
		if st.ChangedA != first.ChangedA || st.ChangedB != first.ChangedB || st.Materialized != first.Materialized {
			h.t.Errorf("%s merge changedA/changedB/materialized = %d/%d/%d, %s says %d/%d/%d", n,
				st.ChangedA, st.ChangedB, st.Materialized, h.names[0], first.ChangedA, first.ChangedB, first.Materialized)
		}
		if st.DiffBytes != first.DiffBytes {
			h.t.Errorf("%s merge diff bytes = %d, %s says %d", n, st.DiffBytes, h.names[0], first.DiffBytes)
		}
	}
}

// branchScanSet collects a branch scan as a set of record byte strings.
func (h *harness) branchScanSet(db *core.Database, b vgraph.BranchID) map[string]bool {
	tbl, _ := db.Table("t")
	out := make(map[string]bool)
	err := scanHead(tbl, b, func(rec *record.Record) bool {
		out[string(rec.Bytes())] = true
		return true
	})
	if err != nil {
		h.t.Fatalf("scan: %v", err)
	}
	return out
}

func stateSet(s state) map[string]bool {
	out := make(map[string]bool, len(s))
	for _, v := range s {
		out[v] = true
	}
	return out
}

func describeSetDiff(a, b map[string]bool) string {
	var onlyA, onlyB int
	for k := range a {
		if !b[k] {
			onlyA++
		}
	}
	for k := range b {
		if !a[k] {
			onlyB++
		}
	}
	return fmt.Sprintf("%d records only in engine, %d only in model (engine=%d model=%d)", onlyA, onlyB, len(a), len(b))
}

// verify checks every branch scan, sampled commits, diffs and
// multi-branch scans across all engines against the model.
func (h *harness) verify(r *rand.Rand, commits []*vgraph.Commit) {
	branches := h.graph.Branches()
	// Branch scans.
	for _, br := range branches {
		want := stateSet(h.model.BranchState(br.ID))
		for _, n := range h.names {
			got := h.branchScanSet(h.dbs[n], br.ID)
			if !setsEqual(got, want) {
				h.t.Errorf("%s: branch %s scan mismatch: %s", n, br.Name, describeSetDiff(got, want))
				if n == "version-first" {
					tbl, _ := h.dbs[n].Table("t")
					eng := tbl.Engine().(*vf.Engine)
					h.t.Log(eng.DumpLineage(br.ID))
					for k := range got {
						if !want[k] {
							rec, _ := record.FromBytes(h.schema, []byte(k))
							h.t.Logf("extra pk=%d:\n%s", rec.PK(), eng.DumpKey(rec.PK()))
						}
					}
					for k := range want {
						if !got[k] {
							rec, _ := record.FromBytes(h.schema, []byte(k))
							h.t.Logf("missing pk=%d:\n%s", rec.PK(), eng.DumpKey(rec.PK()))
						}
					}
				}
			}
		}
	}
	// Commit checkouts (sampled).
	for i := 0; i < 5 && len(commits) > 0; i++ {
		c := commits[r.Intn(len(commits))]
		want := stateSet(h.model.CommitState(c.ID))
		for _, n := range h.names {
			tbl, _ := h.dbs[n].Table("t")
			got := make(map[string]bool)
			if err := scanCommit(tbl, c, func(rec *record.Record) bool {
				got[string(rec.Bytes())] = true
				return true
			}); err != nil {
				h.t.Fatalf("%s scanCommit: %v", n, err)
			}
			if !setsEqual(got, want) {
				h.t.Errorf("%s: commit %d checkout mismatch: %s", n, c.ID, describeSetDiff(got, want))
			}
		}
	}
	// Diffs (sampled pairs): each (row, side) exactly once.
	for i := 0; i < 4 && len(branches) >= 2; i++ {
		a := branches[r.Intn(len(branches))].ID
		b := branches[r.Intn(len(branches))].ID
		if a == b {
			continue
		}
		want := h.model.Diff(a, b)
		for _, n := range h.names {
			tbl, _ := h.dbs[n].Table("t")
			got := make(map[string]int)
			if err := scanDiff(tbl, a, b, func(rec *record.Record, inA bool) bool {
				side := "\x00B"
				if inA {
					side = "\x00A"
				}
				got[string(rec.Bytes())+side]++
				return true
			}); err != nil {
				h.t.Fatalf("%s diff: %v", n, err)
			}
			if dup := repeated(got); dup > 0 {
				h.t.Errorf("%s: diff(%d,%d) emitted %d (row, side) pairs more than once", n, a, b, dup)
			}
			if !setsEqual(keySet(got), want) {
				h.t.Errorf("%s: diff(%d,%d) mismatch: %s", n, a, b, describeSetDiff(keySet(got), want))
			}
		}
	}
	// Multi-branch scans: each branch's projection must equal its single
	// scan, with every row once. All branches in id order, then a random
	// subset in random request order (its own source, so the workload's
	// stream is untouched).
	ids := make([]vgraph.BranchID, 0, len(branches))
	for _, br := range branches {
		ids = append(ids, br.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	sub := rand.New(rand.NewSource(int64(len(commits))*7919 + int64(len(ids))))
	subset := append([]vgraph.BranchID(nil), ids...)
	sub.Shuffle(len(subset), func(i, j int) { subset[i], subset[j] = subset[j], subset[i] })
	subset = subset[:1+sub.Intn(len(subset))]
	for _, req := range [][]vgraph.BranchID{ids, subset} {
		h.verifyMulti(req)
	}
}

// verifyMulti checks one multi-branch scan of the branches, in request
// order, on every engine: every emitted record is a member of some
// requested branch, and each branch's projection holds its model state
// with every row exactly once.
func (h *harness) verifyMulti(ids []vgraph.BranchID) {
	for _, n := range h.names {
		tbl, _ := h.dbs[n].Table("t")
		proj := make([]map[string]int, len(ids))
		for i := range proj {
			proj[i] = make(map[string]int)
		}
		if err := scanMulti(tbl, ids, func(rec *record.Record, member *bitmap.Bitmap) bool {
			if !member.Any() {
				h.t.Errorf("%s: ScanMulti emitted record with empty membership", n)
			}
			for i := range ids {
				if member.Get(i) {
					proj[i][string(rec.Bytes())]++
				}
			}
			return true
		}); err != nil {
			h.t.Fatalf("%s scanMulti: %v", n, err)
		}
		for i, id := range ids {
			want := stateSet(h.model.BranchState(id))
			if dup := repeated(proj[i]); dup > 0 {
				h.t.Errorf("%s: ScanMulti%v projection of branch %d has %d rows more than once", n, ids, id, dup)
			}
			if !setsEqual(keySet(proj[i]), want) {
				h.t.Errorf("%s: ScanMulti%v projection of branch %d mismatch: %s", n, ids, id, describeSetDiff(keySet(proj[i]), want))
			}
		}
	}
}

// repeated returns how many keys a multiset holds more than once.
func repeated(m map[string]int) int {
	n := 0
	for _, c := range m {
		if c > 1 {
			n++
		}
	}
	return n
}

// keySet returns a multiset's distinct keys.
func keySet(m map[string]int) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

func setsEqual(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// mkRec builds a record with random payload for pk.
func mkRec(schema *record.Schema, r *rand.Rand, pk int64) *record.Record {
	rec := record.New(schema)
	rec.SetPK(pk)
	for i := 1; i < schema.NumColumns(); i++ {
		rec.Set(i, r.Int63())
	}
	return rec
}

// runWorkload drives a seeded random versioned workload and verifies
// continuously.
func runWorkload(t *testing.T, seed int64, ops int, allowMerge bool, threeWay bool) {
	h := newHarness(t)
	r := rand.New(rand.NewSource(seed))
	master, c0 := h.init()
	commits := []*vgraph.Commit{c0}
	branches := []*vgraph.Branch{master}
	nextPK := int64(1)
	nextBranch := 1
	_ = master

	for op := 0; op < ops; op++ {
		switch k := r.Intn(104); {
		case k < 50: // insert: a new key, or one some branch wrote before
			b := branches[r.Intn(len(branches))]
			if nextPK > 1 && r.Intn(5) == 0 {
				h.insert(b.ID, mkRec(h.schema, r, 1+r.Int63n(nextPK-1)))
				break
			}
			h.insert(b.ID, mkRec(h.schema, r, nextPK))
			nextPK++
		case k < 70: // update existing
			b := branches[r.Intn(len(branches))]
			st := h.model.BranchState(b.ID)
			if pk, ok := anyKey(r, st); ok {
				h.insert(b.ID, mkRec(h.schema, r, pk))
			}
		case k < 80: // delete
			b := branches[r.Intn(len(branches))]
			st := h.model.BranchState(b.ID)
			if pk, ok := anyKey(r, st); ok {
				h.delete(b.ID, pk)
			}
		case k < 90: // commit
			b := branches[r.Intn(len(branches))]
			commits = append(commits, h.commit(b.ID))
		case k < 96: // branch (mostly from head, sometimes historical)
			var from vgraph.CommitID
			if r.Intn(4) == 0 {
				from = commits[r.Intn(len(commits))].ID
			} else {
				pb := branches[r.Intn(len(branches))]
				cur, _ := h.graph.Branch(pb.ID)
				from = cur.Head
			}
			nb := h.branch(fmt.Sprintf("b%d", nextBranch), from)
			nextBranch++
			branches = append(branches, nb)
		case k >= 102:
			h.reopen()
		case k >= 100:
			h.compact()
		default: // merge
			if !allowMerge || len(branches) < 2 {
				continue
			}
			i, j := r.Intn(len(branches)), r.Intn(len(branches))
			if i == j {
				continue
			}
			kind := core.TwoWay
			if threeWay {
				kind = core.ThreeWay
			}
			h.merge(branches[i].ID, branches[j].ID, kind, r.Intn(2) == 0)
			mb, _ := h.graph.Branch(branches[i].ID)
			mcommit, _ := h.graph.Commit(mb.Head)
			commits = append(commits, mcommit)
		}
		h.verifyLookups()
		if h.t.Failed() {
			h.t.Fatalf("lookup divergence at op %d (seed %d)", op, seed)
		}
		if op%50 == 49 {
			h.verify(r, commits)
			if h.t.Failed() {
				h.t.Fatalf("divergence detected at op %d (seed %d)", op, seed)
			}
		}
	}
	h.verify(r, commits)
	if h.t.Failed() {
		h.t.Fatalf("divergence detected at end (seed %d)", seed)
	}
}

func TestDifferentialLinear(t *testing.T) {
	runWorkload(t, 1, 300, false, false)
}

func TestDifferentialBranchingNoMerge(t *testing.T) {
	runWorkload(t, 2, 300, false, false)
}

func TestDifferentialTwoWayMerges(t *testing.T) {
	runWorkload(t, 3, 300, true, false)
}

func TestDifferentialThreeWayMerges(t *testing.T) {
	runWorkload(t, 4, 300, true, true)
}

func TestDifferentialManySeedsTwoWay(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(10); seed < 16; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runWorkload(t, seed, 200, true, false)
		})
	}
}

func TestDifferentialManySeedsThreeWay(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(20); seed < 26; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runWorkload(t, seed, 200, true, true)
		})
	}
}

func anyKey(r *rand.Rand, s state) (int64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	keys := make([]int64, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys[r.Intn(len(keys))], true
}
