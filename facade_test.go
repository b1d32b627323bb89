package decibel_test

// Facade contract tests: the full git-like round trip of Section 2.2
// driven purely through the public decibel package on every engine,
// plus errors.Is assertions for each sentinel error.

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"decibel"
)

// facadeEngines are the canonical engine names the round trip runs on.
var facadeEngines = []string{"tuple-first", "version-first", "hybrid"}

// TestEnginesRegistered: Engines lists the three schemes, every
// canonical name and alias opens a table on the engine of that name,
// and any other name fails with ErrUnknownEngine, listing the three.
func TestEnginesRegistered(t *testing.T) {
	got := decibel.Engines()
	want := []string{"hybrid", "tuple-first", "version-first"}
	if !slices.Equal(got, want) {
		t.Fatalf("Engines() = %v, want %v", got, want)
	}
	for _, c := range []struct{ name, kind string }{
		{"hybrid", "hybrid"}, {"hy", "hybrid"},
		{"tuple-first", "tuple-first"}, {"tf", "tuple-first"},
		{"version-first", "version-first"}, {"vf", "version-first"},
	} {
		db, err := decibel.Open(t.TempDir(), decibel.WithEngine(c.name))
		if err != nil {
			t.Fatalf("Open(%q): %v", c.name, err)
		}
		tbl, err := db.CreateTable("t", decibel.NewSchema().Int64("id").MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		if kind := tbl.Engine().Kind(); kind != c.kind {
			t.Errorf("WithEngine(%q) opened a %s table, want %s", c.name, kind, c.kind)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	_, err := decibel.Open(t.TempDir(), decibel.WithEngine("btree"))
	if !errors.Is(err, decibel.ErrUnknownEngine) {
		t.Fatalf("unknown engine: got %v, want ErrUnknownEngine", err)
	}
	for _, name := range want {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-engine error %q does not list %s", err, name)
		}
	}
}

// TestFacadeRoundTrip: open → create table → init → branch → insert →
// commit → merge → reopen, checking the catalog and version graph
// survive the reopen, on all three engines.
func TestFacadeRoundTrip(t *testing.T) {
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			dir := t.TempDir()
			db, err := decibel.Open(dir, decibel.WithEngine(engine),
				decibel.WithPageSize(64<<10), decibel.WithPoolPages(64))
			if err != nil {
				t.Fatal(err)
			}

			schema, err := decibel.NewSchema().Int64("id").Int64("price").Int32("qty").Build()
			if err != nil {
				t.Fatal(err)
			}
			products, err := db.CreateTable("products", schema)
			if err != nil {
				t.Fatal(err)
			}
			master, _, err := db.Init("init")
			if err != nil {
				t.Fatal(err)
			}

			mkRec := func(pk, price, qty int64) *decibel.Record {
				rec := decibel.NewRecord(schema)
				rec.SetPK(pk)
				rec.Set(1, price)
				rec.Set(2, qty)
				return rec
			}
			// Name-based write transaction: ten products on master.
			if _, err := db.Commit("master", func(tx *decibel.Tx) error {
				tx.SetMessage("ten products")
				for pk := int64(1); pk <= 10; pk++ {
					if err := tx.Insert("products", mkRec(pk, pk*100, 5)); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			if _, err := db.Branch("master", "dev"); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Commit("dev", func(tx *decibel.Tx) error {
				tx.SetMessage("dev work")
				if err := tx.Insert("products", mkRec(3, 333, 5)); err != nil { // price change on dev
					return err
				}
				return tx.Insert("products", mkRec(11, 1100, 1)) // new record on dev
			}); err != nil {
				t.Fatal(err)
			}
			// Uncommitted head write through the ID-based table API: qty
			// change on master, visible to diff and merge below.
			if err := products.Insert(master.ID, mkRec(5, 500, 1)); err != nil {
				t.Fatal(err)
			}

			// Name-based diff iterator: dev has pk 3 (changed) and 11
			// (new) vs master; master has pk 3 (old), 5 (changed) and
			// no 11.
			inDev, inMaster := 0, 0
			diff, diffErr := db.Diff("products", "dev", "master")
			for _, inA := range diff {
				if inA {
					inDev++
				} else {
					inMaster++
				}
			}
			if err := diffErr(); err != nil {
				t.Fatal(err)
			}
			if inDev != 3 || inMaster != 2 {
				t.Fatalf("diff(dev, master) = %d/%d records, want 3/2", inDev, inMaster)
			}

			mc, st, err := db.Merge("master", "dev", decibel.WithMergeMessage("merge dev"))
			if err != nil {
				t.Fatal(err)
			}
			if !mc.IsMerge() {
				t.Fatal("merge commit has one parent")
			}
			if st.Conflicts != 0 {
				t.Fatalf("unexpected conflicts: %d", st.Conflicts)
			}

			// Master now holds 11 records: dev's price fix and new row
			// plus master's own qty change.
			rows, scanErr := db.Rows("products", "master")
			byPK := map[int64][2]int64{}
			for rec := range rows {
				byPK[rec.PK()] = [2]int64{rec.Get(1), rec.Get(2)}
			}
			if err := scanErr(); err != nil {
				t.Fatal(err)
			}
			if len(byPK) != 11 {
				t.Fatalf("master has %d records after merge, want 11", len(byPK))
			}
			if byPK[3][0] != 333 {
				t.Fatalf("pk 3 price = %d, want dev's 333", byPK[3][0])
			}
			if byPK[5][1] != 1 {
				t.Fatalf("pk 5 qty = %d, want master's 1", byPK[5][1])
			}

			// A multi-branch scan sees the merged record set across both
			// heads.
			distinct := 0
			multi, multiErr := db.Query("products").On("master", "dev").Annotated()
			for _, membership := range multi {
				if len(membership) == 0 {
					t.Fatal("record with empty membership")
				}
				distinct++
			}
			if err := multiErr(); err != nil {
				t.Fatal(err)
			}
			if distinct < 11 {
				t.Fatalf("multi-branch scan saw %d records, want >= 11", distinct)
			}

			nCommits := db.Graph().NumCommits()
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatalf("second Close not idempotent: %v", err)
			}

			// Reopen: catalog, graph and committed data must all be back.
			db2, err := decibel.Open(dir, decibel.WithEngine(engine),
				decibel.WithPageSize(64<<10), decibel.WithPoolPages(64))
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			products2, err := db2.TableByName("products")
			if err != nil {
				t.Fatal(err)
			}
			if !products2.Schema().Equal(schema) {
				t.Fatal("reopened schema differs")
			}
			if got := db2.Graph().NumCommits(); got != nCommits {
				t.Fatalf("reopened graph has %d commits, want %d", got, nCommits)
			}
			if _, err := db2.BranchNamed("master"); err != nil {
				t.Fatal(err)
			}
			if _, err := db2.BranchNamed("dev"); err != nil {
				t.Fatal(err)
			}
			n := 0
			rows2, scanErr2 := db2.Rows("products", "master")
			for range rows2 {
				n++
			}
			if err := scanErr2(); err != nil {
				t.Fatal(err)
			}
			if n != 11 {
				t.Fatalf("reopened master has %d records, want 11", n)
			}
		})
	}
}

// TestIteratorEarlyBreak checks range-over-func scans stop cleanly
// mid-iteration.
func TestIteratorEarlyBreak(t *testing.T) {
	db, _, _ := openSeeded(t, "hybrid")
	defer db.Close()
	n := 0
	rows, scanErr := db.Rows("r", "master")
	for range rows {
		n++
		if n == 3 {
			break
		}
	}
	if err := scanErr(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("broke after %d records, want 3", n)
	}
}

// openSeeded opens a fresh dataset with one table and ten committed
// records on master.
func openSeeded(t *testing.T, engine string) (*decibel.DB, *decibel.Table, *decibel.Branch) {
	t.Helper()
	db, err := decibel.Open(t.TempDir(), decibel.WithEngine(engine))
	if err != nil {
		t.Fatal(err)
	}
	schema := decibel.NewSchema().Int64("id").Int64("v").MustBuild()
	tbl, err := db.CreateTable("r", schema)
	if err != nil {
		t.Fatal(err)
	}
	master, _, err := db.Init("init")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Commit("master", func(tx *decibel.Tx) error {
		tx.SetMessage("seed")
		for pk := int64(1); pk <= 10; pk++ {
			rec := decibel.NewRecord(schema)
			rec.SetPK(pk)
			rec.Set(1, pk)
			if err := tx.Insert("r", rec); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return db, tbl, master
}

func TestSentinelErrors(t *testing.T) {
	if _, err := decibel.Open(t.TempDir(), decibel.WithEngine("btree")); !errors.Is(err, decibel.ErrUnknownEngine) {
		t.Fatalf("unknown engine: got %v, want ErrUnknownEngine", err)
	}

	db, tbl, master := openSeeded(t, "hybrid")
	defer db.Close()

	if _, err := db.TableByName("nope"); !errors.Is(err, decibel.ErrNoSuchTable) {
		t.Fatalf("missing table: got %v, want ErrNoSuchTable", err)
	}
	if _, err := db.BranchNamed("nope"); !errors.Is(err, decibel.ErrNoSuchBranch) {
		t.Fatalf("missing branch: got %v, want ErrNoSuchBranch", err)
	}
	if _, err := db.Branch("nope", "b"); !errors.Is(err, decibel.ErrNoSuchBranch) {
		t.Fatalf("branch from missing parent: got %v, want ErrNoSuchBranch", err)
	}
	if _, err := db.Database.Branch("b", decibel.CommitID(9999)); !errors.Is(err, decibel.ErrNoSuchCommit) {
		t.Fatalf("branch from missing commit: got %v, want ErrNoSuchCommit", err)
	}
	if _, err := db.Commit("nope", func(*decibel.Tx) error { return nil }); !errors.Is(err, decibel.ErrNoSuchBranch) {
		t.Fatalf("commit on missing branch: got %v, want ErrNoSuchBranch", err)
	}
	if _, _, err := db.Merge("master", "nope"); !errors.Is(err, decibel.ErrNoSuchBranch) {
		t.Fatalf("merge from missing branch: got %v, want ErrNoSuchBranch", err)
	}
	txErr := errors.New("callback failed")
	before := db.Graph().NumCommits()
	if _, err := db.Commit("master", func(*decibel.Tx) error { return txErr }); !errors.Is(err, txErr) {
		t.Fatalf("failing callback: got %v, want the callback's error", err)
	}
	if got := db.Graph().NumCommits(); got != before {
		t.Fatalf("failing callback still committed: %d commits, want %d", got, before)
	}
	if _, _, err := db.Init("again"); !errors.Is(err, decibel.ErrAlreadyInitialized) {
		t.Fatalf("double init: got %v, want ErrAlreadyInitialized", err)
	}
	if _, err := db.CreateTable("late", tbl.Schema()); !errors.Is(err, decibel.ErrAlreadyInitialized) {
		t.Fatalf("create after init: got %v, want ErrAlreadyInitialized", err)
	}

	// Transaction errors.
	rec := decibel.NewRecord(tbl.Schema())
	rec.SetPK(100)

	// A Tx retained past its callback is closed.
	var kept *decibel.Tx
	if _, err := db.Commit("master", func(tx *decibel.Tx) error { kept = tx; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := kept.Insert("r", rec); !errors.Is(err, decibel.ErrSessionClosed) {
		t.Fatalf("Insert on a retained Tx: got %v, want ErrSessionClosed", err)
	}
	if err := kept.Delete("r", 1); !errors.Is(err, decibel.ErrSessionClosed) {
		t.Fatalf("Delete on a retained Tx: got %v, want ErrSessionClosed", err)
	}
	keptRows, keptErr := kept.Rows("r")
	for range keptRows {
		t.Fatal("Rows on a retained Tx yielded a record")
	}
	if err := keptErr(); !errors.Is(err, decibel.ErrSessionClosed) {
		t.Fatalf("Rows on a retained Tx: got %v, want ErrSessionClosed", err)
	}
	if err := kept.AddColumn("r", decibel.Column{Name: "late", Type: decibel.Int64}); !errors.Is(err, decibel.ErrSessionClosed) {
		t.Fatalf("AddColumn on a retained Tx: got %v, want ErrSessionClosed", err)
	}

	// A write after the lock-free ID-based Commit moved the head under
	// the transaction fails the at-head guard, and nothing commits.
	before = db.Graph().NumCommits()
	if _, err := db.Commit("master", func(tx *decibel.Tx) error {
		if _, err := db.Database.Commit(master.ID, "behind the transaction"); err != nil {
			return err
		}
		return tx.Insert("r", rec)
	}); !errors.Is(err, decibel.ErrNotAtHead) {
		t.Fatalf("write behind a moved head: got %v, want ErrNotAtHead", err)
	}
	if got := db.Graph().NumCommits(); got != before+1 { // the lock-free commit only
		t.Fatalf("%d commits after the refused transaction, want %d", got, before+1)
	}

	if _, err := db.Commit("master", func(tx *decibel.Tx) error { return tx.Insert("nope", rec) }); !errors.Is(err, decibel.ErrNoSuchTable) {
		t.Fatalf("insert into missing table: got %v, want ErrNoSuchTable", err)
	}

	// Database operations fail with ErrDatabaseClosed after Close.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Commit("master", func(*decibel.Tx) error { return nil }); !errors.Is(err, decibel.ErrDatabaseClosed) {
		t.Fatalf("Commit on closed db: got %v, want ErrDatabaseClosed", err)
	}
	if _, err := db.Branch("master", "late"); !errors.Is(err, decibel.ErrDatabaseClosed) {
		t.Fatalf("Branch on closed db: got %v, want ErrDatabaseClosed", err)
	}
	if err := db.Flush(); !errors.Is(err, decibel.ErrDatabaseClosed) {
		t.Fatalf("Flush on closed db: got %v, want ErrDatabaseClosed", err)
	}
	if _, err := db.Stats(); !errors.Is(err, decibel.ErrDatabaseClosed) {
		t.Fatalf("Stats on closed db: got %v, want ErrDatabaseClosed", err)
	}
	if err := tbl.Insert(master.ID, rec); !errors.Is(err, decibel.ErrDatabaseClosed) {
		t.Fatalf("Insert on closed db: got %v, want ErrDatabaseClosed", err)
	}
	rows, scanErr := db.Rows("r", "master")
	for range rows {
		t.Fatal("scan on closed db yielded a record")
	}
	if err := scanErr(); !errors.Is(err, decibel.ErrDatabaseClosed) {
		t.Fatalf("Rows on closed db: got %v, want ErrDatabaseClosed", err)
	}
}

func TestSchemaBuilderValidation(t *testing.T) {
	if _, err := decibel.NewSchema().Build(); err == nil {
		t.Fatal("empty schema accepted")
	}
	if _, err := decibel.NewSchema().Int32("id").Build(); err == nil {
		t.Fatal("non-Int64 primary key accepted")
	}
	if _, err := decibel.NewSchema().Int64("id").Int64("id").Build(); err == nil {
		t.Fatal("duplicate column accepted")
	}
	s, err := decibel.NewSchema().Int64("id").Int64("a").Int32("b").Build()
	if err != nil {
		t.Fatal(err)
	}
	if s.NumColumns() != 3 || s.Column(2).Type != decibel.Int32 {
		t.Fatalf("built schema wrong: %d columns", s.NumColumns())
	}
}
