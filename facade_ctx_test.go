package decibel_test

// Context-cancellation contract tests: every facade scan has a Context
// form that aborts within one record of cancellation and reports
// ctx.Err(), and the write path (CommitContext and its Tx operations)
// refuses to start work under a canceled context.

import (
	"context"
	"errors"
	"testing"

	"decibel"
)

// openLarge seeds one table with n committed records on master.
func openLarge(t *testing.T, engine string, n int64) (*decibel.DB, *decibel.Table) {
	t.Helper()
	db, err := decibel.Open(t.TempDir(), decibel.WithEngine(engine))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	schema := decibel.NewSchema().Int64("id").Int64("v").MustBuild()
	tbl, err := db.CreateTable("r", schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Init("init"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Commit("master", func(tx *decibel.Tx) error {
		for pk := int64(1); pk <= n; pk++ {
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
	return db, tbl
}

// TestRowsContextCancelMidScan cancels the context from inside the
// iteration and checks the scan stops promptly with ctx.Err(), on every
// engine.
func TestRowsContextCancelMidScan(t *testing.T) {
	const total = 5000
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			db, _ := openLarge(t, engine, total)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			seen := 0
			rows, scanErr := db.RowsContext(ctx, "r", "master")
			for range rows {
				seen++
				if seen == 10 {
					cancel() // cancel mid-scan; the iterator must stop on its own
				}
			}
			if err := scanErr(); !errors.Is(err, context.Canceled) {
				t.Fatalf("scan error = %v, want context.Canceled", err)
			}
			// The wrapped callback stops within one record of cancellation.
			if seen > 11 {
				t.Fatalf("scan yielded %d records after cancellation, want <= 11", seen)
			}
		})
	}
}

// TestDiffContextCancel checks cancellation propagates through the diff
// iterator as well.
func TestDiffContextCancel(t *testing.T) {
	db, _ := openLarge(t, "hybrid", 2000)
	if _, err := db.Branch("master", "dev"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Commit("dev", func(tx *decibel.Tx) error {
		schema := decibel.NewSchema().Int64("id").Int64("v").MustBuild()
		for pk := int64(1); pk <= 1000; pk++ {
			rec := decibel.NewRecord(schema)
			rec.SetPK(pk)
			rec.Set(1, -pk)
			if err := tx.Insert("r", rec); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	diff, diffErr := db.DiffContext(ctx, "r", "dev", "master")
	for range diff {
		seen++
		if seen == 5 {
			cancel()
		}
	}
	if err := diffErr(); !errors.Is(err, context.Canceled) {
		t.Fatalf("diff error = %v, want context.Canceled", err)
	}
	if seen > 6 {
		t.Fatalf("diff yielded %d records after cancellation, want <= 6", seen)
	}
}

// TestPreCanceledContext: operations under an already-canceled context
// fail fast with ctx.Err() without doing any work.
func TestPreCanceledContext(t *testing.T) {
	db, tbl := openLarge(t, "hybrid", 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := decibel.OpenContext(ctx, t.TempDir()); !errors.Is(err, context.Canceled) {
		t.Fatalf("OpenContext: got %v, want context.Canceled", err)
	}
	before := db.Graph().NumCommits()
	if _, err := db.CommitContext(ctx, "master", func(*decibel.Tx) error {
		t.Fatal("callback ran under a canceled context")
		return nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("CommitContext: got %v, want context.Canceled", err)
	}
	if got := db.Graph().NumCommits(); got != before {
		t.Fatalf("canceled CommitContext committed: %d commits, want %d", got, before)
	}
	rows, scanErr := db.RowsContext(ctx, "r", "master")
	for range rows {
		t.Fatal("canceled scan yielded a record")
	}
	if err := scanErr(); !errors.Is(err, context.Canceled) {
		t.Fatalf("RowsContext: got %v, want context.Canceled", err)
	}
	at, atErr := db.Query("r").Heads().AnnotatedContext(ctx)
	for range at {
		t.Fatal("canceled multi scan yielded a record")
	}
	if err := atErr(); !errors.Is(err, context.Canceled) {
		t.Fatalf("AnnotatedContext: got %v, want context.Canceled", err)
	}

	// Canceled inside the callback: the Tx's operations and the commit
	// handoff refuse, and the write made before the cancel rolls back.
	live, stop := context.WithCancel(context.Background())
	defer stop()
	rec := decibel.NewRecord(tbl.Schema())
	rec.SetPK(99)
	if _, err := db.CommitContext(live, "master", func(tx *decibel.Tx) error {
		if err := tx.Insert("r", rec); err != nil {
			return err
		}
		stop()
		if err := tx.Insert("r", rec); !errors.Is(err, context.Canceled) {
			t.Errorf("Tx.Insert: got %v, want context.Canceled", err)
		}
		rows, rowsErr := tx.Rows("r")
		for range rows {
			t.Error("Tx.Rows yielded a record under a canceled context")
		}
		if err := rowsErr(); !errors.Is(err, context.Canceled) {
			t.Errorf("Tx.Rows: got %v, want context.Canceled", err)
		}
		return nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("CommitContext canceled in the callback: got %v, want context.Canceled", err)
	}
	if got := db.Graph().NumCommits(); got != before {
		t.Fatalf("canceled transaction committed: %d commits, want %d", got, before)
	}
	if n, err := db.Query("r").On("master").Count(); err != nil || n != 10 {
		t.Fatalf("head after the canceled transaction: %d records (%v), want the committed 10", n, err)
	}
}

// TestQueryAtSeq reads historical commits by branch name plus
// sequence number — the CLI's "checkout <branch>@<n>" — through the
// query builder's On(branch).At(seq).
func TestQueryAtSeq(t *testing.T) {
	db, _ := openLarge(t, "hybrid", 3) // master@1 = three records
	schema := decibel.NewSchema().Int64("id").Int64("v").MustBuild()
	if _, err := db.Commit("master", func(tx *decibel.Tx) error {
		rec := decibel.NewRecord(schema)
		rec.SetPK(4)
		rec.Set(1, 4)
		return tx.Insert("r", rec) // master@2 = four records
	}); err != nil {
		t.Fatal(err)
	}

	for seq, want := range []int{0, 3, 4} { // master@0 is the init commit
		n, err := db.Query("r").On("master").At(seq).Count()
		if err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Fatalf("master@%d has %d records, want %d", seq, n, want)
		}
	}
	if _, err := db.Query("r").On("nope").At(0).Count(); !errors.Is(err, decibel.ErrNoSuchBranch) {
		t.Fatalf("missing branch: got %v, want ErrNoSuchBranch", err)
	}
	if _, err := db.Query("r").On("master").At(99).Count(); !errors.Is(err, decibel.ErrNoSuchCommit) {
		t.Fatalf("missing seq: got %v, want ErrNoSuchCommit", err)
	}
}
