package decibel_test

// Crash-safety regression test combining two recovery paths: the
// commit-log torn-tail truncation (a crash mid-append leaves a partial
// entry at the end of a branch history file, which open must detect by
// length and discard) and the never-committed-branch restoration fixed
// in an earlier PR (a branch created but not yet committed to recovers
// its branch-point snapshot from its parent's log). A single crash can
// leave a dataset in both states at once — one branch's log torn, a
// sibling branch log-less — and reopening must recover every committed
// record of both.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"decibel"
	"decibel/internal/vgraph"
)

// tearCommitLogs appends garbage to every engine commit-history file
// under dir, simulating a crash that tore the final log append (the
// commit it belonged to never reached the version graph).
func tearCommitLogs(t *testing.T, dir string) int {
	t.Helper()
	torn := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".hist" {
			return err
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		// A plausible-looking but truncated entry: a base-delta header
		// declaring a 200-byte payload followed by only a few bytes.
		if _, err := f.Write([]byte{0, 200, 1, 2, 3}); err != nil {
			f.Close()
			return err
		}
		torn++
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	return torn
}

func TestRecoverTornLogAndUncommittedBranch(t *testing.T) {
	// The torn-tail path exists in the bitmap commit logs, which only
	// tuple-first and hybrid use (version-first rolls back through its
	// SafeCount catalog instead).
	for _, engine := range []string{"tuple-first", "hybrid"} {
		t.Run(engine, func(t *testing.T) {
			dir := t.TempDir()
			db, err := decibel.Open(dir, decibel.WithEngine(engine))
			if err != nil {
				t.Fatal(err)
			}
			schema := decibel.NewSchema().Int64("id").Int64("v").MustBuild()
			if _, err := db.CreateTable("r", schema); err != nil {
				t.Fatal(err)
			}
			if _, _, err := db.Init("init"); err != nil {
				t.Fatal(err)
			}
			put := func(branch string, pks ...int64) {
				t.Helper()
				if _, err := db.Commit(branch, func(tx *decibel.Tx) error {
					recs := make([]*decibel.Record, len(pks))
					for i, pk := range pks {
						rec := decibel.NewRecord(schema)
						rec.SetPK(pk)
						rec.Set(1, pk*10)
						recs[i] = rec
					}
					return tx.InsertBatch("r", recs)
				}); err != nil {
					t.Fatal(err)
				}
			}
			put("master", 1, 2, 3)
			put("master", 4, 5)
			// A branch that commits once, and one that never commits:
			// the latter must recover from its branch point alone.
			if _, err := db.Branch("master", "dev"); err != nil {
				t.Fatal(err)
			}
			put("dev", 6)
			if _, err := db.Branch("master", "wip"); err != nil {
				t.Fatal(err)
			}
			db.Close()

			if torn := tearCommitLogs(t, dir); torn == 0 {
				t.Fatal("no commit-history files found to tear")
			}

			db2, err := decibel.Open(dir, decibel.WithEngine(engine))
			if err != nil {
				t.Fatalf("reopen after torn logs: %v", err)
			}
			defer db2.Close()

			want := map[string][]int64{
				"master": {1, 2, 3, 4, 5},
				"dev":    {1, 2, 3, 4, 5, 6},
				"wip":    {1, 2, 3, 4, 5},
			}
			for branch, pks := range want {
				got, err := db2.Query("r").On(branch).Count()
				if err != nil {
					t.Fatalf("%s: %v", branch, err)
				}
				if got != len(pks) {
					t.Fatalf("%s has %d records after recovery, want %d", branch, got, len(pks))
				}
				for _, pk := range pks {
					n, err := db2.Query("r").On(branch).
						Where(decibel.Col("id").Eq(pk).And(decibel.Col("v").Eq(pk * 10))).Count()
					if err != nil || n != 1 {
						t.Fatalf("%s: pk %d -> %d matches (%v)", branch, pk, n, err)
					}
				}
			}

			// The recovered dataset must accept new commits: the torn
			// entries were truncated, so log positions line up with the
			// version graph again.
			if _, err := db2.Commit("wip", func(tx *decibel.Tx) error {
				rec := decibel.NewRecord(schema)
				rec.SetPK(7)
				rec.Set(1, 70)
				return tx.Insert("r", rec)
			}); err != nil {
				t.Fatalf("commit after recovery: %v", err)
			}
			if n, err := db2.Query("r").On("wip").Count(); err != nil || n != 6 {
				t.Fatalf("wip after post-recovery commit: %d (%v)", n, err)
			}
		})
	}
}

// The version graph's log record is a commit's commit point: it is
// written after every engine has applied the commit. A crash in between
// leaves the engines' files one commit (or merge) ahead of the graph,
// and reopening must take the graph's word for it — every branch reads
// exactly its last commit in the graph, and the branch goes on
// committing. The opposite state, the graph ahead of the engines, no
// order of writes produces; Open refuses it by name.

// crashDataset builds master (rows 1..5 over two commits) and dev (one
// more row, 6), and returns the closed dataset's directory.
func crashDataset(t *testing.T, engine string) (dir string, schema *decibel.Schema) {
	t.Helper()
	dir = t.TempDir()
	db, err := decibel.Open(dir, decibel.WithEngine(engine))
	if err != nil {
		t.Fatal(err)
	}
	schema = decibel.NewSchema().Int64("id").Int64("v").MustBuild()
	if _, err := db.CreateTable("r", schema); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Init("init"); err != nil {
		t.Fatal(err)
	}
	crashPut(t, db, schema, "master", 1, 2, 3)
	crashPut(t, db, schema, "master", 4, 5)
	if _, err := db.Branch("master", "dev"); err != nil {
		t.Fatal(err)
	}
	crashPut(t, db, schema, "dev", 6)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, schema
}

func crashPut(t *testing.T, db *decibel.DB, schema *decibel.Schema, branch string, pks ...int64) {
	t.Helper()
	if _, err := db.Commit(branch, func(tx *decibel.Tx) error {
		for _, pk := range pks {
			rec := decibel.NewRecord(schema)
			rec.SetPK(pk)
			rec.Set(1, pk*10)
			if err := tx.Insert("r", rec); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// expectRows checks that the branch holds exactly pks, each with the
// value crashPut gave it.
func expectRows(t *testing.T, db *decibel.DB, branch string, pks ...int64) {
	t.Helper()
	n, err := db.Query("r").On(branch).Count()
	if err != nil || n != len(pks) {
		t.Fatalf("%s holds %d rows (%v), want %v", branch, n, err, pks)
	}
	for _, pk := range pks {
		n, err := db.Query("r").On(branch).Where(decibel.Col("id").Eq(pk).And(decibel.Col("v").Eq(pk * 10))).Count()
		if err != nil || n != 1 {
			t.Fatalf("%s: pk %d matches %d rows (%v)", branch, pk, n, err)
		}
	}
}

// graphFiles are the version graph's files in a dataset directory.
var graphFiles = []string{"graph.json", "wal.log"}

func TestReopenWithEnginesAheadOfGraph(t *testing.T) {
	lost := map[string]func(t *testing.T, db *decibel.DB, schema *decibel.Schema){
		"commit": func(t *testing.T, db *decibel.DB, schema *decibel.Schema) { crashPut(t, db, schema, "master", 7) },
		"merge": func(t *testing.T, db *decibel.DB, _ *decibel.Schema) {
			if _, _, err := db.Merge("master", "dev"); err != nil {
				t.Fatal(err)
			}
		},
	}
	for _, engine := range []string{"tuple-first", "hybrid", "version-first"} {
		for name, op := range lost {
			t.Run(engine+"/"+name, func(t *testing.T) {
				dir, schema := crashDataset(t, engine)
				saved := t.TempDir()
				for _, f := range graphFiles {
					copyFile(t, filepath.Join(dir, f), filepath.Join(saved, f))
				}
				db, err := decibel.Open(dir, decibel.WithEngine(engine))
				if err != nil {
					t.Fatal(err)
				}
				op(t, db, schema)
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				// The operation reached every engine file and not the graph.
				for _, f := range graphFiles {
					copyFile(t, filepath.Join(saved, f), filepath.Join(dir, f))
				}

				for round := 0; round < 2; round++ { // the repair must itself survive a reopen
					db, err = decibel.Open(dir, decibel.WithEngine(engine))
					if err != nil {
						t.Fatalf("reopen %d: %v", round, err)
					}
					expectRows(t, db, "master", 1, 2, 3, 4, 5)
					expectRows(t, db, "dev", 1, 2, 3, 4, 5, 6)
					if n, err := db.Query("r").On("master").At(1).Count(); err != nil || n != 3 {
						t.Fatalf("master@1 holds %d rows (%v), want 3", n, err)
					}
					if round == 0 {
						if err := db.Close(); err != nil {
							t.Fatal(err)
						}
					}
				}
				defer db.Close()
				crashPut(t, db, schema, "master", 8)
				expectRows(t, db, "master", 1, 2, 3, 4, 5, 8)
				if _, err := db.Branch("master", "next"); err != nil {
					t.Fatalf("branch from the head: %v", err)
				}
				expectRows(t, db, "next", 1, 2, 3, 4, 5, 8)
				if _, _, err := db.Merge("master", "dev"); err != nil {
					t.Fatalf("merge after the repair: %v", err)
				}
				expectRows(t, db, "master", 1, 2, 3, 4, 5, 6, 8)
			})
		}
	}
}

// A commit that starts a new commit log — a branch's first — writes the
// log before the graph records the commit. A kill in between leaves the
// log beside a graph and catalogs that never heard of it; the commit
// is lost, and the branch must take the same commit again and keep it
// across the next reopen.
func TestReopenKeepsCommitAfterUnsavedLogStart(t *testing.T) {
	for _, engine := range []string{"tuple-first", "hybrid", "version-first"} {
		t.Run(engine, func(t *testing.T) {
			dir, schema := crashDataset(t, engine)
			db, err := decibel.Open(dir, decibel.WithEngine(engine))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.Branch("master", "feat"); err != nil {
				t.Fatal(err)
			}
			saved := t.TempDir()
			catalogs := append([]string{"catalog.json", filepath.Join("tables", "r", "segments.json")}, graphFiles...)
			for _, f := range catalogs {
				copyFile(t, filepath.Join(dir, f), filepath.Join(saved, filepath.Base(f)))
			}
			crashPut(t, db, schema, "feat", 9)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			for _, f := range catalogs {
				copyFile(t, filepath.Join(saved, filepath.Base(f)), filepath.Join(dir, f))
			}

			db, err = decibel.Open(dir, decibel.WithEngine(engine))
			if err != nil {
				t.Fatal(err)
			}
			expectRows(t, db, "feat", 1, 2, 3, 4, 5)
			crashPut(t, db, schema, "feat", 7)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db, err = decibel.Open(dir, decibel.WithEngine(engine))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			expectRows(t, db, "feat", 1, 2, 3, 4, 5, 7)
			expectRows(t, db, "master", 1, 2, 3, 4, 5)
		})
	}
}

// Init writes the engines' files before the graph records the init
// commit. A kill in between leaves a dataset whose tables have files and
// whose graph has no commit; the init must run again and hold.
func TestReopenAfterUnrecordedInit(t *testing.T) {
	for _, engine := range []string{"tuple-first", "hybrid", "version-first"} {
		t.Run(engine, func(t *testing.T) {
			dir := t.TempDir()
			db, err := decibel.Open(dir, decibel.WithEngine(engine))
			if err != nil {
				t.Fatal(err)
			}
			schema := decibel.NewSchema().Int64("id").Int64("v").MustBuild()
			if _, err := db.CreateTable("r", schema); err != nil {
				t.Fatal(err)
			}
			// The graph's files as they were before the init; a missing
			// one is put back as missing.
			saved := make(map[string][]byte)
			for _, f := range graphFiles {
				if data, err := os.ReadFile(filepath.Join(dir, f)); err == nil {
					saved[f] = data
				}
			}
			if _, _, err := db.Init("init"); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			for _, f := range graphFiles {
				os.Remove(filepath.Join(dir, f))
				if data, ok := saved[f]; ok {
					if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}

			db, err = decibel.Open(dir, decibel.WithEngine(engine))
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := db.Init("init again"); err != nil {
				t.Fatal(err)
			}
			crashPut(t, db, schema, "master", 1, 2)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db, err = decibel.Open(dir, decibel.WithEngine(engine))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			expectRows(t, db, "master", 1, 2)
		})
	}
}

// A process kill leaves on disk what the open database has written and
// nothing it still buffers; copying the open database's directory is
// what a SIGKILL leaves. With fsync off, every acknowledged commit and
// merge must be in it.
func TestReopenAfterProcessKill(t *testing.T) {
	ops := []struct {
		name   string
		op     func(t *testing.T, db *decibel.DB, schema *decibel.Schema)
		master []int64
	}{
		{"commit", func(t *testing.T, db *decibel.DB, schema *decibel.Schema) {}, []int64{1, 2, 3, 4, 5}},
		{"merge", func(t *testing.T, db *decibel.DB, schema *decibel.Schema) {
			if _, err := db.Branch("master", "dev"); err != nil {
				t.Fatal(err)
			}
			crashPut(t, db, schema, "dev", 6)
			crashPut(t, db, schema, "master", 7)
			if _, _, err := db.Merge("master", "dev"); err != nil {
				t.Fatal(err)
			}
		}, []int64{1, 2, 3, 4, 5, 6, 7}},
	}
	for _, engine := range []string{"tuple-first", "hybrid", "version-first"} {
		for _, tc := range ops {
			t.Run(engine+"/"+tc.name, func(t *testing.T) {
				dir := t.TempDir()
				db, err := decibel.Open(dir, decibel.WithEngine(engine))
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				schema := decibel.NewSchema().Int64("id").Int64("v").MustBuild()
				if _, err := db.CreateTable("r", schema); err != nil {
					t.Fatal(err)
				}
				if _, _, err := db.Init("init"); err != nil {
					t.Fatal(err)
				}
				crashPut(t, db, schema, "master", 1, 2, 3)
				crashPut(t, db, schema, "master", 4, 5)
				tc.op(t, db, schema)

				killed := t.TempDir()
				copyTree(t, dir, killed)
				kdb, err := decibel.Open(killed, decibel.WithEngine(engine))
				if err != nil {
					t.Fatal(err)
				}
				defer kdb.Close()
				expectRows(t, kdb, "master", tc.master...)
				for seq, want := range []int{3, 5} {
					if n, err := kdb.Query("r").On("master").At(seq + 1).Count(); err != nil || n != want {
						t.Fatalf("master@%d holds %d rows (%v), want %d", seq+1, n, err, want)
					}
				}
			})
		}
	}
}

// dataFile returns the one data file of table r named name.
func dataFile(t *testing.T, dir, name string) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "tables", "*", name))
	if err != nil || len(paths) != 1 {
		t.Fatalf("data file %s: %v (%v)", name, paths, err)
	}
	return paths[0]
}

// A segment file holding fewer rows than its catalog vouches for has
// lost committed rows; Open says so instead of reading the branch short.
// Here version-first's frozen master segment loses its last row.
func TestOpenRefusesSegmentShorterThanCatalog(t *testing.T) {
	dir, _ := crashDataset(t, "version-first")
	seg := dataFile(t, dir, "seg0.dat")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()/5*4); err != nil { // rows 1..5, less one
		t.Fatal(err)
	}
	db, err := decibel.Open(dir, decibel.WithEngine("version-first"))
	if err == nil {
		db.Close()
		t.Fatal("opened a dataset whose segment lost a committed row")
	}
	if !strings.Contains(err.Error(), "holds 4 records, the catalog vouches for 5") {
		t.Fatalf("error %q does not name the short segment", err)
	}
}

// Tuple-first seals an extent at a count every global slot after it
// builds on. Bytes past that count in the sealed extent's file — a torn
// append — belong to no slot: Open cuts them off, and every row still
// reads at its own slot.
func TestReopenCutsSealedExtentTail(t *testing.T) {
	dir := t.TempDir()
	db, err := decibel.Open(dir, decibel.WithEngine("tuple-first"))
	if err != nil {
		t.Fatal(err)
	}
	schema := decibel.NewSchema().Int64("id").Int64("v").MustBuild()
	if _, err := db.CreateTable("r", schema); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Init("init"); err != nil {
		t.Fatal(err)
	}
	crashPut(t, db, schema, "master", 1, 2, 3)
	if _, err := db.Commit("master", func(tx *decibel.Tx) error {
		return tx.AddColumn("r", decibel.Int32Column("extra"), decibel.Default(7))
	}); err != nil {
		t.Fatal(err)
	}
	crashPut(t, db, schema, "master", 4) // opens extent 1; extent 0 is sealed at 3
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	ext0 := dataFile(t, dir, "seg0.dat")
	fi, err := os.Stat(ext0)
	if err != nil {
		t.Fatal(err)
	}
	sealed := fi.Size()
	f, err := os.OpenFile(ext0, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, sealed/3)); err != nil { // one torn row
		t.Fatal(err)
	}
	f.Close()

	db, err = decibel.Open(dir, decibel.WithEngine("tuple-first"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if fi, err = os.Stat(ext0); err != nil {
		t.Fatal(err)
	}
	if fi.Size() != sealed {
		t.Fatalf("sealed extent is %d bytes after reopen, want %d", fi.Size(), sealed)
	}
	expectRows(t, db, "master", 1, 2, 3, 4)
	crashPut(t, db, schema, "master", 5)
	expectRows(t, db, "master", 1, 2, 3, 4, 5)
}

func TestOpenRefusesGraphAheadOfEngines(t *testing.T) {
	for _, engine := range []string{"tuple-first", "hybrid", "version-first"} {
		t.Run(engine, func(t *testing.T) {
			dir, schema := crashDataset(t, engine)
			saved := t.TempDir()
			copyTree(t, filepath.Join(dir, "tables"), saved)
			db, err := decibel.Open(dir, decibel.WithEngine(engine))
			if err != nil {
				t.Fatal(err)
			}
			crashPut(t, db, schema, "master", 7)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			// The engines' files lose the commit; the graph keeps it.
			if err := os.RemoveAll(filepath.Join(dir, "tables")); err != nil {
				t.Fatal(err)
			}
			copyTree(t, saved, filepath.Join(dir, "tables"))

			db, err = decibel.Open(dir, decibel.WithEngine(engine))
			if err == nil {
				db.Close()
				t.Fatal("opened a dataset whose engines lack a commit the graph has")
			}
			for _, want := range []string{`table "r"`, "branch 0", "4 commits in the version graph", "3 in the storage engine"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not say %q", err, want)
				}
			}
		})
	}
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// The graph logs a branch before any engine runs — and, with several
// relations, before the second relation's engine does — so a crash in
// between leaves a branch the graph has and an engine has never seen.
// Such a branch is at its branch point: it must read as that commit and
// take writes like any other, on every relation, from the next open on.
func TestReopenWithBranchNoEngineSaw(t *testing.T) {
	for _, engine := range []string{"tuple-first", "hybrid", "version-first"} {
		for _, tables := range [][]string{{"r"}, {"r", "s"}} {
			t.Run(fmt.Sprintf("%s/%d-table", engine, len(tables)), func(t *testing.T) {
				dir := t.TempDir()
				schema := decibel.NewSchema().Int64("id").Int64("v").MustBuild()
				open := func() *decibel.DB {
					t.Helper()
					db, err := decibel.Open(dir, decibel.WithEngine(engine))
					if err != nil {
						t.Fatal(err)
					}
					return db
				}
				put := func(db *decibel.DB, branch string, pks ...int64) {
					t.Helper()
					if _, err := db.Commit(branch, func(tx *decibel.Tx) error {
						for _, tbl := range tables {
							for _, pk := range pks {
								rec := decibel.NewRecord(schema)
								rec.SetPK(pk)
								rec.Set(1, pk*10)
								if err := tx.Insert(tbl, rec); err != nil {
									return err
								}
							}
						}
						return nil
					}); err != nil {
						t.Fatalf("write to %s: %v", branch, err)
					}
				}
				expect := func(db *decibel.DB, branch string, pks ...int64) {
					t.Helper()
					for _, tbl := range tables {
						var sum, want float64
						n, err := db.Query(tbl).On(branch).Count()
						if err == nil {
							sum, err = db.Query(tbl).On(branch).Sum("id")
						}
						for _, pk := range pks {
							want += float64(pk)
						}
						if err != nil || n != len(pks) || sum != want {
							t.Fatalf("%s.%s holds %d rows with keys summing to %v (%v), want %v", branch, tbl, n, sum, err, pks)
						}
					}
				}

				db := open()
				for _, tbl := range tables {
					if _, err := db.CreateTable(tbl, schema); err != nil {
						t.Fatal(err)
					}
				}
				if _, _, err := db.Init("init"); err != nil {
					t.Fatal(err)
				}
				put(db, "master", 1, 2, 3)
				if _, err := db.Branch("master", "dev"); err != nil {
					t.Fatal(err)
				}
				put(db, "dev", 4)
				put(db, "master", 5)
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}

				// Two branches reach the graph's log and nothing else: one
				// at master's head, one at an older commit of it.
				g, err := vgraph.Open(dir, false)
				if err != nil {
					t.Fatal(err)
				}
				master, _ := g.BranchByName("master")
				older, _ := g.CommitAt(master.ID, 1)
				if _, err := g.NewBranch("lost", master.Head); err != nil {
					t.Fatal(err)
				}
				if _, err := g.NewBranch("lost-older", older.ID); err != nil {
					t.Fatal(err)
				}
				if err := g.Close(); err != nil {
					t.Fatal(err)
				}

				db = open()
				expect(db, "lost", 1, 2, 3, 5)
				expect(db, "lost-older", 1, 2, 3)
				put(db, "lost", 6)
				put(db, "lost-older", 7)
				expect(db, "lost", 1, 2, 3, 5, 6)
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}

				db = open()
				defer db.Close()
				expect(db, "lost", 1, 2, 3, 5, 6)
				expect(db, "lost-older", 1, 2, 3, 7)
				expect(db, "master", 1, 2, 3, 5)
				expect(db, "dev", 1, 2, 3, 4)
				if _, _, err := db.Merge("master", "lost"); err != nil {
					t.Fatalf("merge of the recovered branch: %v", err)
				}
				expect(db, "master", 1, 2, 3, 5, 6)
			})
		}
	}
}
