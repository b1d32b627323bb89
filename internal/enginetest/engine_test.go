package enginetest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"decibel/internal/bitmap"
	"decibel/internal/core"
	"decibel/internal/hy"
	"decibel/internal/record"
	"decibel/internal/vf"
	"decibel/internal/vgraph"
)

// engineCases enumerates every engine configuration under test.
func engineCases() []struct {
	name    string
	factory core.Factory
	opt     core.Options
} {
	base := core.Options{PageSize: 4096, PoolPages: 16}
	return []struct {
		name    string
		factory core.Factory
		opt     core.Options
	}{
		{"tuple-first", hy.TupleFirstFactory, base},
		{"version-first", vf.Factory, base},
		{"hybrid", hy.Factory, base},
	}
}

// only is the engine lookup that opens every dataset with factory's
// engine: a test opens only datasets it wrote with that engine.
func only(factory core.Factory) core.Engines {
	return func(string) (core.Factory, error) { return factory, nil }
}

func openDB(t *testing.T, dir string, factory core.Factory, opt core.Options) *core.Database {
	t.Helper()
	db, err := core.Open(dir, "", only(factory), opt)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// The suites read through the one scan driver every query runs on —
// Table.ScanUnitsContext, with a match-all spec at the
// read's schema epoch.
func scanReq(tbl *core.Table, req core.ScanRequest, epoch int, fn core.UnitFunc) error {
	spec, err := core.NewScanSpecAt(tbl.History(), epoch, nil, nil)
	if err != nil {
		return err
	}
	return tbl.ScanUnitsContext(context.Background(), req, spec, nil, fn)
}

// scanHead emits the records live at a branch head.
func scanHead(tbl *core.Table, b vgraph.BranchID, fn func(*record.Record) bool) error {
	return scanReq(tbl, core.ScanRequest{Kind: core.ScanKindBranch, Branch: b}, tbl.BranchEpoch(b),
		func(rec *record.Record, _ core.UnitAux) bool { return fn(rec) })
}

// scanCommit emits the records of a committed version.
func scanCommit(tbl *core.Table, c *vgraph.Commit, fn func(*record.Record) bool) error {
	return scanReq(tbl, core.ScanRequest{Kind: core.ScanKindCommit, Commit: c}, c.SchemaVer,
		func(rec *record.Record, _ core.UnitAux) bool { return fn(rec) })
}

// scanDiff emits the symmetric difference of two branch heads; inA
// marks records live in a but not b.
func scanDiff(tbl *core.Table, a, b vgraph.BranchID, fn func(rec *record.Record, inA bool) bool) error {
	return scanReq(tbl, core.ScanRequest{Kind: core.ScanKindDiff, A: a, B: b}, max(tbl.BranchEpoch(a), tbl.BranchEpoch(b)),
		func(rec *record.Record, aux core.UnitAux) bool { return fn(rec, aux.InA) })
}

// scanPositiveDiff emits the records live in a's head but not b's.
func scanPositiveDiff(tbl *core.Table, a, b vgraph.BranchID, fn func(*record.Record) bool) error {
	return scanReq(tbl, core.ScanRequest{Kind: core.ScanKindPositiveDiff, A: a, B: b}, max(tbl.BranchEpoch(a), tbl.BranchEpoch(b)),
		func(rec *record.Record, _ core.UnitAux) bool { return fn(rec) })
}

// scanMulti emits the records live in any of the branch heads with
// their membership bitmap (bit i = branches[i]).
func scanMulti(tbl *core.Table, branches []vgraph.BranchID, fn func(*record.Record, *bitmap.Bitmap) bool) error {
	return scanReq(tbl, core.ScanRequest{Kind: core.ScanKindMulti, Branches: branches}, tbl.MaxBranchEpoch(branches),
		func(rec *record.Record, aux core.UnitAux) bool { return fn(rec, aux.Member) })
}

func scanPKs(t *testing.T, db *core.Database, b vgraph.BranchID) map[int64]int64 {
	t.Helper()
	tbl, _ := db.Table("t")
	out := make(map[int64]int64)
	if err := scanHead(tbl, b, func(rec *record.Record) bool {
		out[rec.PK()] = rec.Get(1)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func simpleRec(s *record.Schema, pk, v int64) *record.Record {
	r := record.New(s)
	r.SetPK(pk)
	r.Set(1, v)
	return r
}

// TestEngineBasicLifecycle covers insert/update/delete/commit/checkout
// on every engine.
func TestEngineBasicLifecycle(t *testing.T) {
	for _, tc := range engineCases() {
		t.Run(tc.name, func(t *testing.T) {
			db := openDB(t, t.TempDir(), tc.factory, tc.opt)
			defer db.Close()
			schema := testSchema()
			if _, err := db.CreateTable("t", schema); err != nil {
				t.Fatal(err)
			}
			master, _, err := db.Init("init")
			if err != nil {
				t.Fatal(err)
			}
			tbl, _ := db.Table("t")
			for pk := int64(1); pk <= 10; pk++ {
				if err := tbl.Insert(master.ID, simpleRec(schema, pk, pk*10)); err != nil {
					t.Fatal(err)
				}
			}
			c1, err := db.Commit(master.ID, "ten rows")
			if err != nil {
				t.Fatal(err)
			}
			// Update 3, delete 7.
			if err := tbl.Insert(master.ID, simpleRec(schema, 3, 999)); err != nil {
				t.Fatal(err)
			}
			if err := tbl.Delete(master.ID, 7); err != nil {
				t.Fatal(err)
			}
			got := scanPKs(t, db, master.ID)
			if len(got) != 9 || got[3] != 999 || got[1] != 10 {
				t.Fatalf("head state = %v", got)
			}
			if _, deleted := got[7]; deleted {
				t.Fatal("pk 7 still visible")
			}
			// Historical checkout still sees the committed state.
			snap := make(map[int64]int64)
			if err := scanCommit(tbl, c1, func(rec *record.Record) bool {
				snap[rec.PK()] = rec.Get(1)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(snap) != 10 || snap[3] != 30 || snap[7] != 70 {
				t.Fatalf("commit snapshot = %v", snap)
			}
			// Deleting a missing key is a no-op.
			if err := tbl.Delete(master.ID, 12345); err != nil {
				t.Fatal(err)
			}
			if len(scanPKs(t, db, master.ID)) != 9 {
				t.Fatal("no-op delete changed state")
			}
		})
	}
}

// TestEngineBranchIsolation verifies writes to a child are invisible to
// the parent and vice versa.
func TestEngineBranchIsolation(t *testing.T) {
	for _, tc := range engineCases() {
		t.Run(tc.name, func(t *testing.T) {
			db := openDB(t, t.TempDir(), tc.factory, tc.opt)
			defer db.Close()
			schema := testSchema()
			db.CreateTable("t", schema)
			master, _, _ := db.Init("init")
			tbl, _ := db.Table("t")
			tbl.Insert(master.ID, simpleRec(schema, 1, 100))
			db.Commit(master.ID, "c")
			dev, err := db.BranchFromHead(t.Context(), "dev", "master")
			if err != nil {
				t.Fatal(err)
			}
			tbl.Insert(dev.ID, simpleRec(schema, 2, 200))    // child-only insert
			tbl.Insert(dev.ID, simpleRec(schema, 1, 111))    // child-only update
			tbl.Insert(master.ID, simpleRec(schema, 3, 300)) // parent-only insert
			tbl.Delete(master.ID, 1)                         // parent-only delete

			m := scanPKs(t, db, master.ID)
			d := scanPKs(t, db, dev.ID)
			if len(m) != 1 || m[3] != 300 {
				t.Fatalf("master = %v", m)
			}
			if len(d) != 2 || d[1] != 111 || d[2] != 200 {
				t.Fatalf("dev = %v", d)
			}
		})
	}
}

// TestEngineBranchFromHistoricalCommit branches off a non-head commit.
func TestEngineBranchFromHistoricalCommit(t *testing.T) {
	for _, tc := range engineCases() {
		t.Run(tc.name, func(t *testing.T) {
			db := openDB(t, t.TempDir(), tc.factory, tc.opt)
			defer db.Close()
			schema := testSchema()
			db.CreateTable("t", schema)
			master, _, _ := db.Init("init")
			tbl, _ := db.Table("t")
			tbl.Insert(master.ID, simpleRec(schema, 1, 1))
			c1, _ := db.Commit(master.ID, "v1")
			tbl.Insert(master.ID, simpleRec(schema, 2, 2))
			db.Commit(master.ID, "v2")
			tbl.Insert(master.ID, simpleRec(schema, 3, 3))

			old, err := db.Branch("old", c1.ID)
			if err != nil {
				t.Fatal(err)
			}
			got := scanPKs(t, db, old.ID)
			if len(got) != 1 || got[1] != 1 {
				t.Fatalf("historical branch state = %v (want only pk 1)", got)
			}
			// The historical branch is writable going forward.
			tbl.Insert(old.ID, simpleRec(schema, 9, 9))
			got = scanPKs(t, db, old.ID)
			if len(got) != 2 || got[9] != 9 {
				t.Fatalf("after write: %v", got)
			}
			// Master unaffected.
			if m := scanPKs(t, db, master.ID); len(m) != 3 {
				t.Fatalf("master = %v", m)
			}
		})
	}
}

// TestEngineUncommittedRollbackOnReopen verifies the transaction
// semantics of Section 2.2.3: updates not covered by a commit are
// rolled back when the dataset is reopened.
func TestEngineUncommittedRollbackOnReopen(t *testing.T) {
	for _, tc := range engineCases() {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			schema := testSchema()
			db := openDB(t, dir, tc.factory, tc.opt)
			db.CreateTable("t", schema)
			master, _, _ := db.Init("init")
			tbl, _ := db.Table("t")
			tbl.Insert(master.ID, simpleRec(schema, 1, 1))
			db.Commit(master.ID, "v1")
			// A merge takes its source's uncommitted rows into the merge
			// commit; the source itself still loses them.
			src, _ := db.BranchFromHead(t.Context(), "src", "master")
			dst, _ := db.BranchFromHead(t.Context(), "dst", "master")
			tbl.Insert(src.ID, simpleRec(schema, 3, 3)) // uncommitted
			if _, _, err := db.MergeContext(t.Context(), dst.Name, src.Name, "merge", core.ThreeWay, true); err != nil {
				t.Fatal(err)
			}
			tbl.Insert(master.ID, simpleRec(schema, 2, 2)) // uncommitted
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			db2 := openDB(t, dir, tc.factory, tc.opt)
			defer db2.Close()
			m, _ := db2.Graph().BranchByName("master")
			got := scanPKs(t, db2, m.ID)
			if len(got) != 1 || got[1] != 1 {
				t.Fatalf("state after reopen = %v (want committed state only)", got)
			}
			if got := scanPKs(t, db2, src.ID); len(got) != 1 || got[1] != 1 {
				t.Fatalf("merged-from branch after reopen = %v (want committed state only)", got)
			}
			if got := scanPKs(t, db2, dst.ID); len(got) != 2 || got[3] != 3 {
				t.Fatalf("merged-into branch after reopen = %v (want the merge commit)", got)
			}
			// The reopened dataset accepts new writes and commits.
			tbl2, _ := db2.Table("t")
			if err := tbl2.Insert(m.ID, simpleRec(schema, 5, 5)); err != nil {
				t.Fatal(err)
			}
			if _, err := db2.Commit(m.ID, "v2"); err != nil {
				t.Fatal(err)
			}
			got = scanPKs(t, db2, m.ID)
			if len(got) != 2 || got[5] != 5 {
				t.Fatalf("after reopen write: %v", got)
			}
		})
	}
}

// TestEngineReopenPreservesBranchesAndHistory exercises full reload of
// a branched dataset.
func TestEngineReopenPreservesBranchesAndHistory(t *testing.T) {
	for _, tc := range engineCases() {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			schema := testSchema()
			db := openDB(t, dir, tc.factory, tc.opt)
			db.CreateTable("t", schema)
			master, _, _ := db.Init("init")
			tbl, _ := db.Table("t")
			tbl.Insert(master.ID, simpleRec(schema, 1, 1))
			c1, _ := db.Commit(master.ID, "v1")
			dev, _ := db.BranchFromHead(t.Context(), "dev", "master")
			tbl.Insert(dev.ID, simpleRec(schema, 2, 2))
			db.Commit(dev.ID, "dev v1")
			tbl.Insert(master.ID, simpleRec(schema, 3, 3))
			c3, _ := db.Commit(master.ID, "v2")
			db.Close()

			db2 := openDB(t, dir, tc.factory, tc.opt)
			defer db2.Close()
			m, _ := db2.Graph().BranchByName("master")
			d, _ := db2.Graph().BranchByName("dev")
			if got := scanPKs(t, db2, m.ID); len(got) != 2 || got[3] != 3 {
				t.Fatalf("master after reopen = %v", got)
			}
			if got := scanPKs(t, db2, d.ID); len(got) != 2 || got[2] != 2 {
				t.Fatalf("dev after reopen = %v", got)
			}
			// Historical checkouts still work.
			tbl2, _ := db2.Table("t")
			for _, c := range []*vgraph.Commit{c1, c3} {
				cc, ok := db2.Graph().Commit(c.ID)
				if !ok {
					t.Fatalf("commit %d missing after reopen", c.ID)
				}
				n := 0
				if err := scanCommit(tbl2, cc, func(*record.Record) bool { n++; return true }); err != nil {
					t.Fatal(err)
				}
				want := 1
				if c.ID == c3.ID {
					want = 2
				}
				if n != want {
					t.Fatalf("commit %d has %d records after reopen, want %d", c.ID, n, want)
				}
			}
		})
	}
}

// TestEngineMergeAfterReopen verifies merges work on a reloaded
// dataset (commit logs, overrides and segment metadata all survive).
func TestEngineMergeAfterReopen(t *testing.T) {
	for _, tc := range engineCases() {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			schema := testSchema()
			db := openDB(t, dir, tc.factory, tc.opt)
			db.CreateTable("t", schema)
			master, _, _ := db.Init("init")
			tbl, _ := db.Table("t")
			tbl.Insert(master.ID, simpleRec(schema, 1, 1))
			db.Commit(master.ID, "base")
			dev, _ := db.BranchFromHead(t.Context(), "dev", "master")
			tbl.Insert(dev.ID, simpleRec(schema, 2, 2))
			db.Commit(dev.ID, "dev")
			tbl.Insert(master.ID, simpleRec(schema, 3, 3))
			db.Commit(master.ID, "more")
			db.Close()

			db2 := openDB(t, dir, tc.factory, tc.opt)
			defer db2.Close()
			m, _ := db2.Graph().BranchByName("master")
			d, _ := db2.Graph().BranchByName("dev")
			if _, st, err := db2.MergeContext(t.Context(), m.Name, d.Name, "merge", core.ThreeWay, true); err != nil {
				t.Fatal(err)
			} else if st.Conflicts != 0 {
				t.Fatalf("unexpected conflicts: %d", st.Conflicts)
			}
			got := scanPKs(t, db2, m.ID)
			if len(got) != 3 || got[2] != 2 {
				t.Fatalf("merged state = %v", got)
			}
		})
	}
}

// TestEngineMergeConflictPrecedence checks both precedence directions
// for both merge kinds on a concrete conflicting update.
func TestEngineMergeConflictPrecedence(t *testing.T) {
	for _, tc := range engineCases() {
		for _, kind := range []core.MergeKind{core.TwoWay, core.ThreeWay} {
			for _, precFirst := range []bool{true, false} {
				name := tc.name + "/" + kind.String()
				if precFirst {
					name += "/precA"
				} else {
					name += "/precB"
				}
				t.Run(name, func(t *testing.T) {
					db := openDB(t, t.TempDir(), tc.factory, tc.opt)
					defer db.Close()
					schema := testSchema()
					db.CreateTable("t", schema)
					master, _, _ := db.Init("init")
					tbl, _ := db.Table("t")
					base := record.New(schema)
					base.SetPK(1)
					base.Set(1, 10)
					base.Set(2, 20)
					tbl.Insert(master.ID, base)
					db.Commit(master.ID, "base")
					dev, _ := db.BranchFromHead(t.Context(), "dev", "master")

					// master changes col1, dev changes col1 (conflict) and
					// col2 (mergeable in three-way).
					up1 := base.Clone()
					up1.Set(1, 11)
					tbl.Insert(master.ID, up1)
					up2 := base.Clone()
					up2.Set(1, 12)
					up2.Set(2, 22)
					tbl.Insert(dev.ID, up2)

					_, st, err := db.MergeContext(t.Context(), master.Name, dev.Name, "m", kind, precFirst)
					if err != nil {
						t.Fatal(err)
					}
					if st.Conflicts != 1 {
						t.Fatalf("conflicts = %d, want 1", st.Conflicts)
					}
					var got *record.Record
					scanHead(tbl, master.ID, func(rec *record.Record) bool {
						if rec.PK() == 1 {
							got = rec.Clone()
						}
						return true
					})
					if got == nil {
						t.Fatal("pk 1 missing after merge")
					}
					switch {
					case kind == core.TwoWay && precFirst:
						if got.Get(1) != 11 || got.Get(2) != 20 {
							t.Fatalf("two-way precA: %v", got)
						}
					case kind == core.TwoWay && !precFirst:
						if got.Get(1) != 12 || got.Get(2) != 22 {
							t.Fatalf("two-way precB: %v", got)
						}
					case kind == core.ThreeWay && precFirst:
						// Field-level: col1 conflict -> A wins; col2 auto-merges.
						if got.Get(1) != 11 || got.Get(2) != 22 {
							t.Fatalf("three-way precA: %v", got)
						}
					default:
						if got.Get(1) != 12 || got.Get(2) != 22 {
							t.Fatalf("three-way precB: %v", got)
						}
					}
				})
			}
		}
	}
}

// TestEngineStats sanity-checks the storage statistics.
func TestEngineStats(t *testing.T) {
	for _, tc := range engineCases() {
		t.Run(tc.name, func(t *testing.T) {
			db := openDB(t, t.TempDir(), tc.factory, tc.opt)
			defer db.Close()
			schema := testSchema()
			db.CreateTable("t", schema)
			master, _, _ := db.Init("init")
			tbl, _ := db.Table("t")
			for pk := int64(1); pk <= 50; pk++ {
				tbl.Insert(master.ID, simpleRec(schema, pk, pk))
			}
			db.Commit(master.ID, "c")
			st, err := db.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Records < 50 {
				t.Fatalf("records = %d", st.Records)
			}
			if st.DataBytes < 50*int64(schema.RecordSize()) {
				t.Fatalf("data bytes = %d", st.DataBytes)
			}
			if st.LiveRecords != 50 {
				t.Fatalf("live records = %d", st.LiveRecords)
			}
			if st.SegmentCount < 1 {
				t.Fatal("no segments")
			}
			// The key index is one per table, not one per head: eight more
			// heads over the same rows add no entry and only their bitmaps
			// (version-first keeps none per head).
			if st.IndexEntries != 50 {
				t.Fatalf("index entries = %d under 1 head, want the 50 slots live in it", st.IndexEntries)
			}
			m, _ := db.Graph().Branch(master.ID)
			for i := 0; i < 8; i++ {
				if _, err := db.Branch(fmt.Sprintf("b%d", i), m.Head); err != nil {
					t.Fatal(err)
				}
			}
			st9, err := db.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st9.LiveRecords != 9*50 || st9.IndexEntries != 50 {
				t.Fatalf("9 heads: %d live records, %d index entries; want 450 and 50", st9.LiveRecords, st9.IndexEntries)
			}
			if st9.IndexBytes*2 > st.IndexBytes*3 {
				t.Fatalf("index bytes grew %d -> %d with 8 forks of the same rows, want within 1.5x", st.IndexBytes, st9.IndexBytes)
			}
		})
	}
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// rewriteJSON loads a JSON object file, lets edit change it, and writes
// it back.
func rewriteJSON(t *testing.T, path string, edit func(map[string]any)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	edit(doc)
	if data, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFailedOpenClosesFiles: an open that fails half way — after the
// segment files and commit logs are open — hands every descriptor back.
func TestFailedOpenClosesFiles(t *testing.T) {
	cases := []struct {
		name    string
		factory core.Factory
		corrupt func(t *testing.T, dir string)
	}{
		{"hybrid: a commit log names a missing segment", hy.Factory, func(t *testing.T, dir string) {
			// Listed after the table's own logs, which are open by then.
			if err := os.WriteFile(filepath.Join(dir, "tables", "t", "commits", "b0_s99_0.hist"), []byte{0xD1}, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"tuple-first: branch-point commit is missing", hy.TupleFirstFactory, func(t *testing.T, dir string) {
			rewriteJSON(t, filepath.Join(dir, "graph.json"), func(doc map[string]any) {
				for _, b := range doc["branches"].([]any) {
					if b := b.(map[string]any); b["name"] == "dev" {
						b["from"] = 9999
					}
				}
			})
		}},
		{"version-first: branch point of an unseen branch is missing", vf.Factory, func(t *testing.T, dir string) {
			// recover fails at recoverHeads, after every segment is open.
			var dev string
			rewriteJSON(t, filepath.Join(dir, "graph.json"), func(doc map[string]any) {
				for _, b := range doc["branches"].([]any) {
					if b := b.(map[string]any); b["name"] == "dev" {
						b["from"] = 9999
						dev = fmt.Sprint(b["id"])
					}
				}
			})
			rewriteJSON(t, filepath.Join(dir, "tables", "t", "segments.json"), func(doc map[string]any) {
				delete(doc["byBranch"].(map[string]any), dev)
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opt := core.Options{PageSize: 4096, PoolPages: 16}
			db := openDB(t, dir, tc.factory, opt)
			schema := testSchema()
			db.CreateTable("t", schema)
			master, _, _ := db.Init("init")
			tbl, _ := db.Table("t")
			tbl.Insert(master.ID, simpleRec(schema, 1, 1))
			c1, _ := db.Commit(master.ID, "c1")
			if _, err := db.Branch("dev", c1.ID); err != nil { // never committed to
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, dir)

			before := openFDs(t)
			if db, err := core.Open(dir, "", only(tc.factory), opt); err == nil {
				db.Close()
				t.Fatal("open of the corrupted dataset succeeded")
			}
			if after := openFDs(t); after != before {
				t.Fatalf("failed open leaked descriptors: %d open before, %d after", before, after)
			}
		})
	}
}

// TestSessionWorkflow exercises the write transaction end to end: two
// Transact commits, a read of the first commit that does not see the
// second, and the at-head guard that stops a transaction whose head the
// lock-free ID-based Commit moved.
func TestSessionWorkflow(t *testing.T) {
	for _, tc := range engineCases() {
		t.Run(tc.name, func(t *testing.T) {
			db := openDB(t, t.TempDir(), tc.factory, tc.opt)
			defer db.Close()
			schema := testSchema()
			db.CreateTable("t", schema)
			master, _, _ := db.Init("init")
			insert := func(pk int64) func(*core.Tx) error {
				return func(tx *core.Tx) error { return tx.Insert("t", simpleRec(schema, pk, pk)) }
			}
			c1, err := db.Transact(t.Context(), "master", insert(1))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.Transact(t.Context(), "master", insert(2)); err != nil {
				t.Fatal(err)
			}

			// The first commit reads as it was, without the second's row.
			tbl, _ := db.Table("t")
			n := 0
			if err := scanCommit(tbl, c1, func(*record.Record) bool { n++; return true }); err != nil {
				t.Fatal(err)
			}
			if n != 1 {
				t.Fatalf("commit v1 reads %d records, want 1", n)
			}

			// A write after the head moved under the transaction is refused.
			_, err = db.Transact(t.Context(), "master", func(tx *core.Tx) error {
				if _, err := db.Commit(master.ID, "behind the transaction"); err != nil {
					return err
				}
				return tx.Insert("t", simpleRec(schema, 9, 9))
			})
			if !errors.Is(err, core.ErrNotAtHead) {
				t.Fatalf("write behind a moved head: got %v, want ErrNotAtHead", err)
			}
		})
	}
}

// TestDatabaseCatalogReload verifies multi-table datasets reload with
// their schemas.
func TestDatabaseCatalogReload(t *testing.T) {
	dir := t.TempDir()
	schemaR := testSchema()
	schemaS := record.MustSchema(
		record.Column{Name: "id", Type: record.Int64},
		record.Column{Name: "x", Type: record.Int32},
	)
	db := openDB(t, dir, hy.Factory, core.Options{PageSize: 4096, PoolPages: 8})
	db.CreateTable("r", schemaR)
	db.CreateTable("s", schemaS)
	master, _, _ := db.Init("init")
	tr, _ := db.Table("r")
	ts, _ := db.Table("s")
	tr.Insert(master.ID, simpleRec(schemaR, 1, 1))
	sRec := record.New(schemaS)
	sRec.SetPK(7)
	sRec.Set(1, 70)
	ts.Insert(master.ID, sRec)
	db.Commit(master.ID, "both tables")
	db.Close()

	db2 := openDB(t, dir, hy.Factory, core.Options{PageSize: 4096, PoolPages: 8})
	defer db2.Close()
	if len(db2.Tables()) != 2 {
		t.Fatalf("tables after reload = %d", len(db2.Tables()))
	}
	s2, ok := db2.Table("s")
	if !ok || !s2.Schema().Equal(schemaS) {
		t.Fatal("schema s lost or changed")
	}
	m, _ := db2.Graph().BranchByName("master")
	n := 0
	scanHead(s2, m.ID, func(rec *record.Record) bool {
		if rec.PK() != 7 || rec.Get(1) != 70 {
			t.Fatalf("bad record %v", rec)
		}
		n++
		return true
	})
	if n != 1 {
		t.Fatalf("table s has %d records", n)
	}
	if _, err := db2.CreateTable("late", schemaS); err == nil {
		t.Fatal("table created after init")
	}
}

// TestMergeStatsThroughputFields ensures DiffBytes is populated (Table
// 3 computes MB/s relative to the diff size).
func TestMergeStatsThroughputFields(t *testing.T) {
	for _, tc := range engineCases() {
		t.Run(tc.name, func(t *testing.T) {
			db := openDB(t, t.TempDir(), tc.factory, tc.opt)
			defer db.Close()
			schema := testSchema()
			db.CreateTable("t", schema)
			master, _, _ := db.Init("init")
			tbl, _ := db.Table("t")
			for pk := int64(1); pk <= 20; pk++ {
				tbl.Insert(master.ID, simpleRec(schema, pk, pk))
			}
			db.Commit(master.ID, "base")
			dev, _ := db.BranchFromHead(t.Context(), "dev", "master")
			for pk := int64(21); pk <= 30; pk++ {
				tbl.Insert(dev.ID, simpleRec(schema, pk, pk))
			}
			_, st, err := db.MergeContext(t.Context(), master.Name, dev.Name, "m", core.ThreeWay, true)
			if err != nil {
				t.Fatal(err)
			}
			if st.ChangedB != 10 || st.ChangedA != 0 {
				t.Fatalf("changed A=%d B=%d", st.ChangedA, st.ChangedB)
			}
			if st.DiffBytes < 10*int64(schema.RecordSize()) {
				t.Fatalf("diff bytes = %d", st.DiffBytes)
			}
			if got := scanPKs(t, db, master.ID); len(got) != 30 {
				t.Fatalf("merged size = %d", len(got))
			}
		})
	}
}

// TestLookupPKUnknownBranch: a point lookup of a branch the engine
// never registered returns what a scan of that branch returns — no row
// on hybrid and tuple-first, the scan's own error on version-first —
// so the query layer serves every pinned-key read by lookup and never
// needs the scan as a fallback.
func TestLookupPKUnknownBranch(t *testing.T) {
	for _, tc := range engineCases() {
		t.Run(tc.name, func(t *testing.T) {
			db := openDB(t, t.TempDir(), tc.factory, tc.opt)
			defer db.Close()
			schema := testSchema()
			if _, err := db.CreateTable("t", schema); err != nil {
				t.Fatal(err)
			}
			master, _, err := db.Init("init")
			if err != nil {
				t.Fatal(err)
			}
			tbl, _ := db.Table("t")
			if err := tbl.Insert(master.ID, simpleRec(schema, 1, 10)); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Commit(master.ID, "one row"); err != nil {
				t.Fatal(err)
			}
			const unknown vgraph.BranchID = 42
			rows := 0
			scanErr := scanHead(tbl, unknown, func(*record.Record) bool { rows++; return true })
			if rows != 0 {
				t.Fatalf("scan of an unknown branch emitted %d rows", rows)
			}
			buf, _, err := tbl.Engine().LookupPK(core.Version{Branch: unknown}, 1)
			if buf != nil || fmt.Sprint(err) != fmt.Sprint(scanErr) {
				t.Fatalf("LookupPK of an unknown branch: row=%v err=%v; the scan returned err=%v", buf != nil, err, scanErr)
			}
			if wantErr := tc.name == "version-first"; (err != nil) != wantErr {
				t.Fatalf("LookupPK of an unknown branch: err=%v, want an error: %v", err, wantErr)
			}
		})
	}
}

// indexBytesPerEntry is TestIndexBytesPerEntry's ceiling by engine: the
// measured IndexBytes per entry (22.50 tuple-first, 22.10
// version-first, 22.48 hybrid) plus at least a quarter byte, rounded up
// to a half.
var indexBytesPerEntry = map[string]float64{"tuple-first": 23, "version-first": 22.5, "hybrid": 23}

// TestIndexBytesPerEntry bounds the resident key index on a history of
// a few thousand stored records — inserts, updates and deletes on two
// branches and a merge: the index holds one entry per stored slot
// (version-first's tombstones included), and IndexBytes — the index
// plus the engine's resident bitmaps — per entry stays under the
// engine's ceiling.
func TestIndexBytesPerEntry(t *testing.T) {
	for _, tc := range engineCases() {
		t.Run(tc.name, func(t *testing.T) {
			db := openDB(t, t.TempDir(), tc.factory, tc.opt)
			defer db.Close()
			schema := testSchema()
			if _, err := db.CreateTable("t", schema); err != nil {
				t.Fatal(err)
			}
			master, _, err := db.Init("init")
			if err != nil {
				t.Fatal(err)
			}
			tbl, _ := db.Table("t")
			put := func(b vgraph.BranchID, from, to, v int64) {
				t.Helper()
				recs := make([]*record.Record, 0, to-from)
				for pk := from; pk < to; pk++ {
					recs = append(recs, simpleRec(schema, pk, v))
				}
				if err := tbl.InsertBatch(b, recs); err != nil {
					t.Fatal(err)
				}
			}
			del := func(b vgraph.BranchID, from, to int64) {
				t.Helper()
				for pk := from; pk < to; pk++ {
					if err := tbl.Delete(b, pk); err != nil {
						t.Fatal(err)
					}
				}
			}
			commit := func(b vgraph.BranchID) {
				t.Helper()
				if _, err := db.Commit(b, "c"); err != nil {
					t.Fatal(err)
				}
			}
			put(master.ID, 0, 2000, 1)
			commit(master.ID)
			dev, err := db.BranchFromHead(t.Context(), "dev", "master")
			if err != nil {
				t.Fatal(err)
			}
			put(master.ID, 0, 400, 2)
			del(master.ID, 1900, 2000)
			commit(master.ID)
			put(dev.ID, 1000, 1300, 3)
			put(dev.ID, 2000, 2500, 3)
			del(dev.ID, 1500, 1550)
			commit(dev.ID)
			if _, _, err := db.MergeContext(t.Context(), "master", "dev", "merge", core.ThreeWay, true); err != nil {
				t.Fatal(err)
			}
			st, err := db.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.IndexEntries != st.Records {
				t.Fatalf("index entries = %d, want the %d stored slots", st.IndexEntries, st.Records)
			}
			if per := float64(st.IndexBytes) / float64(st.IndexEntries); per > indexBytesPerEntry[tc.name] {
				t.Fatalf("%d index bytes for %d entries: %.2f B/entry, ceiling %.2f",
					st.IndexBytes, st.IndexEntries, per, indexBytesPerEntry[tc.name])
			}
		})
	}
}
