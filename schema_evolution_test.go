package decibel_test

// Schema evolution end-to-end: add a column with a default on one
// branch, verify old rows decode with the default and old versions
// keep their shape, exercise a three-way merge over rows from mixed
// schema versions, and check everything again after close/reopen — on
// all three storage engines.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"decibel"
)

func evolutionEngines() []string { return []string{"tuple-first", "version-first", "hybrid"} }

// seedEvolution builds the shared fixture:
//
//	master: create products(id, qty), insert pks 1..5 (qty = 10*pk), commit  -> master@1 (epoch 0)
//	branch dev off master's head
//	master: update pk 4 qty=444, commit                                      -> old shape
//	dev:    AddColumn price (default 9.5), commit                            -> epoch 1
//	dev:    insert pk 6 (qty 60, price 6.5), update pk 4 price=4.0, commit
//	merge dev into master (three-way)
func seedEvolution(t *testing.T, dir, engine string) *decibel.DB {
	t.Helper()
	db, err := decibel.Open(dir, decibel.WithEngine(engine))
	if err != nil {
		t.Fatal(err)
	}
	schema := decibel.NewSchema().Int64("id").Int32("qty").MustBuild()
	tbl, err := db.CreateTable("products", schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Init("init"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Commit("master", func(tx *decibel.Tx) error {
		for pk := int64(1); pk <= 5; pk++ {
			rec := decibel.NewRecord(schema)
			rec.SetPK(pk)
			rec.Set(1, 10*pk)
			if err := tx.Insert("products", rec); err != nil {
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
	// master keeps writing the old shape after the branch point.
	if _, err := db.Commit("master", func(tx *decibel.Tx) error {
		rec := decibel.NewRecord(schema)
		rec.SetPK(4)
		rec.Set(1, 444)
		return tx.Insert("products", rec)
	}); err != nil {
		t.Fatal(err)
	}
	// dev evolves the schema; the change applies at commit.
	if _, err := db.Commit("dev", func(tx *decibel.Tx) error {
		return tx.AddColumn("products", decibel.Float64Column("price"), decibel.Default(9.5))
	}); err != nil {
		t.Fatal(err)
	}
	// From the next transaction the column is writable on dev.
	wide := tbl.Schema()
	if wide.ColumnIndex("price") < 0 {
		t.Fatal("Table.Schema() does not show the added column")
	}
	if _, err := db.Commit("dev", func(tx *decibel.Tx) error {
		rec := decibel.NewRecord(wide)
		rec.SetPK(6)
		rec.Set(1, 60)
		rec.SetFloat64(2, 6.5)
		if err := tx.Insert("products", rec); err != nil {
			return err
		}
		rec = decibel.NewRecord(wide)
		rec.SetPK(4)
		rec.Set(1, 40) // unchanged vs the branch point
		rec.SetFloat64(2, 4.0)
		return tx.Insert("products", rec)
	}); err != nil {
		t.Fatal(err)
	}
	// Three-way merge: master changed pk4's qty, dev changed pk4's
	// price — disjoint fields across schema versions auto-merge.
	if _, _, err := db.Merge("master", "dev"); err != nil {
		t.Fatal(err)
	}
	return db
}

// verifyEvolution checks the fixture's invariants; it runs both before
// and after a close/reopen.
func verifyEvolution(t *testing.T, db *decibel.DB, engine string) {
	t.Helper()

	// Head reads of dev: old rows show the default, new row its value.
	price := make(map[int64]float64)
	qty := make(map[int64]int64)
	rows, rowsErr := db.Rows("products", "dev")
	for rec := range rows {
		i := rec.Schema().ColumnIndex("price")
		if i < 0 {
			t.Fatalf("[%s] dev head row lacks the price column: %v", engine, rec)
		}
		price[rec.PK()] = rec.GetFloat64(i)
		qty[rec.PK()] = rec.Get(1)
	}
	if err := rowsErr(); err != nil {
		t.Fatalf("[%s] dev rows: %v", engine, err)
	}
	if len(price) != 6 {
		t.Fatalf("[%s] dev has %d rows, want 6", engine, len(price))
	}
	if price[1] != 9.5 || price[6] != 6.5 || price[4] != 4.0 {
		t.Fatalf("[%s] dev prices wrong: %v", engine, price)
	}

	// The merge carried the column to master, resolving mixed-version
	// rows field-wise: pk4 keeps master's qty and dev's price.
	price = map[int64]float64{}
	rows, rowsErr = db.Rows("products", "master")
	for rec := range rows {
		i := rec.Schema().ColumnIndex("price")
		if i < 0 {
			t.Fatalf("[%s] merged master row lacks the price column", engine)
		}
		price[rec.PK()] = rec.GetFloat64(i)
		qty[rec.PK()] = rec.Get(1)
	}
	if err := rowsErr(); err != nil {
		t.Fatalf("[%s] master rows: %v", engine, err)
	}
	if len(price) != 6 {
		t.Fatalf("[%s] merged master has %d rows, want 6", engine, len(price))
	}
	if qty[4] != 444 || price[4] != 4.0 {
		t.Fatalf("[%s] mixed-version three-way merge wrong for pk4: qty=%d price=%g (want 444, 4.0)",
			engine, qty[4], price[4])
	}
	if price[2] != 9.5 || price[6] != 6.5 {
		t.Fatalf("[%s] merged master prices wrong: %v", engine, price)
	}

	// Historical reads keep the schema as of the commit: master@1
	// predates the change, so its rows still have exactly two columns.
	n := 0
	rows, rowsErr = db.Query("products").On("master").At(1).Rows()
	for rec := range rows {
		n++
		if rec.Schema().NumColumns() != 2 {
			t.Fatalf("[%s] master@1 row has %d columns, want 2", engine, rec.Schema().NumColumns())
		}
	}
	if err := rowsErr(); err != nil {
		t.Fatalf("[%s] scan master@1: %v", engine, err)
	}
	if n != 5 {
		t.Fatalf("[%s] master@1 has %d rows, want 5", engine, n)
	}

	// The query builder resolves predicates against the version's
	// schema: price works on dev's head and on the merged master...
	cnt, err := db.Query("products").On("dev").Where(decibel.Col("price").Lt(9.0)).Count()
	if err != nil {
		t.Fatalf("[%s] price query on dev: %v", engine, err)
	}
	if cnt != 2 { // pk 4 (4.0) and pk 6 (6.5); defaults are 9.5
		t.Fatalf("[%s] dev price<9 count = %d, want 2", engine, cnt)
	}
	// ... but At a version predating the column it is not yet there.
	_, err = db.Query("products").On("master").At(1).Where(decibel.Col("price").Lt(9.0)).Count()
	if !errors.Is(err, decibel.ErrColumnNotYetAdded) {
		t.Fatalf("[%s] price@master@1 = %v, want ErrColumnNotYetAdded", engine, err)
	}
	// Selecting it too early fails the same way.
	rows, rowsErr = db.Query("products").On("master").At(1).Select("price").Rows()
	for range rows {
	}
	if err := rowsErr(); !errors.Is(err, decibel.ErrColumnNotYetAdded) {
		t.Fatalf("[%s] select price@master@1 = %v, want ErrColumnNotYetAdded", engine, err)
	}
	// At the merge commit it resolves fine, defaults filled.
	sum, err := db.Query("products").On("master").Sum("price")
	if err != nil {
		t.Fatalf("[%s] sum(price) on master: %v", engine, err)
	}
	if want := 9.5*4 + 4.0 + 6.5; sum != want {
		t.Fatalf("[%s] sum(price) = %g, want %g", engine, sum, want)
	}
}

func TestSchemaEvolutionAcrossEnginesAndReopen(t *testing.T) {
	for _, engine := range evolutionEngines() {
		t.Run(engine, func(t *testing.T) {
			dir := t.TempDir()
			db := seedEvolution(t, dir, engine)
			verifyEvolution(t, db, engine)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			// Reopen: the catalog history, per-segment schema-version ids
			// and commit epoch stamps all come back from disk.
			db, err := decibel.Open(dir, decibel.WithEngine(engine))
			if err != nil {
				t.Fatalf("[%s] reopen: %v", engine, err)
			}
			defer db.Close()
			verifyEvolution(t, db, engine)
		})
	}
}

// TestSchemaEvolutionWriteGates covers the write-side version checks:
// a record carrying a column a branch has not adopted is rejected with
// ErrColumnNotYetAdded, and old-shape records keep working everywhere.
func TestSchemaEvolutionWriteGates(t *testing.T) {
	for _, engine := range evolutionEngines() {
		t.Run(engine, func(t *testing.T) {
			db, err := decibel.Open(t.TempDir(), decibel.WithEngine(engine))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			schema := decibel.NewSchema().Int64("id").Int32("qty").MustBuild()
			tbl, err := db.CreateTable("t", schema)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := db.Init("init"); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Branch("master", "dev"); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Commit("dev", func(tx *decibel.Tx) error {
				return tx.AddColumn("t", decibel.Int32Column("extra"), decibel.Default(7))
			}); err != nil {
				t.Fatal(err)
			}
			wide := tbl.Schema()

			// The new column is writable on dev...
			if _, err := db.Commit("dev", func(tx *decibel.Tx) error {
				rec := decibel.NewRecord(wide)
				rec.SetPK(1)
				return tx.Insert("t", rec)
			}); err != nil {
				t.Fatal(err)
			}
			// ... but not on master, which never adopted the change.
			_, err = db.Commit("master", func(tx *decibel.Tx) error {
				rec := decibel.NewRecord(wide)
				rec.SetPK(2)
				return tx.Insert("t", rec)
			})
			if !errors.Is(err, decibel.ErrColumnNotYetAdded) {
				t.Fatalf("wide insert on master = %v, want ErrColumnNotYetAdded", err)
			}
			// Old-shape records still insert fine on both branches.
			for _, branch := range []string{"master", "dev"} {
				if _, err := db.Commit(branch, func(tx *decibel.Tx) error {
					rec := decibel.NewRecord(schema)
					rec.SetPK(3)
					rec.Set(1, 33)
					return tx.Insert("t", rec)
				}); err != nil {
					t.Fatalf("old-shape insert on %s: %v", branch, err)
				}
			}
			// On dev the old-shape row reads back widened with the
			// declared default; the wide row wrote its own (zero) value.
			rows, rowsErr := db.Query("t").On("dev").Where(decibel.Col("extra").Eq(7)).Rows()
			var matched []int64
			for rec := range rows {
				matched = append(matched, rec.PK())
			}
			if err := rowsErr(); err != nil {
				t.Fatal(err)
			}
			if len(matched) != 1 || matched[0] != 3 {
				t.Fatalf("extra=7 on dev matched %v, want [3]", matched)
			}
		})
	}
}

// TestSchemaEvolutionDropColumn covers the logical drop: the column
// disappears from the visible schema but earlier versions keep it.
func TestSchemaEvolutionDropColumn(t *testing.T) {
	db, err := decibel.Open(t.TempDir(), decibel.WithEngine("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	schema := decibel.NewSchema().Int64("id").Int32("qty").Float64("price").MustBuild()
	tbl, err := db.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Init("init"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Commit("master", func(tx *decibel.Tx) error {
		rec := decibel.NewRecord(schema)
		rec.SetPK(1)
		rec.Set(1, 10)
		rec.SetFloat64(2, 1.5)
		return tx.Insert("t", rec)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Commit("master", func(tx *decibel.Tx) error {
		return tx.DropColumn("t", "price")
	}); err != nil {
		t.Fatal(err)
	}
	if tbl.Schema().ColumnIndex("price") >= 0 {
		t.Fatal("dropped column still in the visible schema")
	}
	// Head reads lack it; the historical version still has it.
	rows, rowsErr := db.Rows("t", "master")
	for rec := range rows {
		if rec.Schema().ColumnIndex("price") >= 0 {
			t.Fatal("dropped column leaked into a head read")
		}
	}
	if err := rowsErr(); err != nil {
		t.Fatal(err)
	}
	n, err := db.Query("t").On("master").At(1).Where(decibel.Col("price").Gt(1.0)).Count()
	if err != nil {
		t.Fatalf("querying the dropped column at an earlier version: %v", err)
	}
	if n != 1 {
		t.Fatalf("price>1 at master@1 = %d, want 1", n)
	}
	// At the head it is gone.
	if _, err := db.Query("t").On("master").Where(decibel.Col("price").Gt(1.0)).Count(); !errors.Is(err, decibel.ErrNoSuchColumn) {
		t.Fatalf("price at head = %v, want ErrNoSuchColumn", err)
	}
	// The primary key cannot be dropped.
	if _, err := db.Commit("master", func(tx *decibel.Tx) error {
		return tx.DropColumn("t", "id")
	}); !errors.Is(err, decibel.ErrSchemaChange) {
		t.Fatalf("dropping the pk = %v, want ErrSchemaChange", err)
	}
}

// copyTree copies a dataset directory recursively (crash-simulation
// snapshots).
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	if err := filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSchemaChangeRollsBackWithTornCommit simulates the crash window
// of a schema-change commit: the catalog was persisted with the new
// version but the commit itself never reached the version graph. On
// reopen the catalog history must reconcile against the graph's
// newest stamped epoch — the uncommitted change disappears with its
// commit and the dataset keeps working in the old shape.
func TestSchemaChangeRollsBackWithTornCommit(t *testing.T) {
	for _, engine := range evolutionEngines() {
		t.Run(engine, func(t *testing.T) {
			dirA, dirB := t.TempDir(), t.TempDir()
			db, err := decibel.Open(dirA, decibel.WithEngine(engine))
			if err != nil {
				t.Fatal(err)
			}
			schema := decibel.NewSchema().Int64("id").Int32("qty").MustBuild()
			if _, err := db.CreateTable("t", schema); err != nil {
				t.Fatal(err)
			}
			if _, _, err := db.Init("init"); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Commit("master", func(tx *decibel.Tx) error {
				rec := decibel.NewRecord(schema)
				rec.SetPK(1)
				rec.Set(1, 10)
				return tx.Insert("t", rec)
			}); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			// Snapshot the consistent pre-DDL state, run the schema
			// change, then graft only the new catalog onto the snapshot:
			// exactly what a crash between the catalog write and the
			// graph write leaves behind.
			copyTree(t, dirA, dirB)
			db, err = decibel.Open(dirA, decibel.WithEngine(engine))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.Commit("master", func(tx *decibel.Tx) error {
				return tx.AddColumn("t", decibel.Int32Column("extra"), decibel.Default(7))
			}); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			cat, err := os.ReadFile(filepath.Join(dirA, "catalog.json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dirB, "catalog.json"), cat, 0o644); err != nil {
				t.Fatal(err)
			}

			db, err = decibel.Open(dirB, decibel.WithEngine(engine))
			if err != nil {
				t.Fatalf("reopen after torn schema commit: %v", err)
			}
			defer db.Close()
			tbl, err := db.TableByName("t")
			if err != nil {
				t.Fatal(err)
			}
			if tbl.Schema().ColumnIndex("extra") >= 0 {
				t.Fatal("uncommitted schema change survived the torn commit")
			}
			// The dataset keeps working in the old shape, and the change
			// can be re-applied cleanly.
			if _, err := db.Commit("master", func(tx *decibel.Tx) error {
				return tx.AddColumn("t", decibel.Int32Column("extra"), decibel.Default(7))
			}); err != nil {
				t.Fatalf("re-applying the rolled-back change: %v", err)
			}
			if tbl.Schema().ColumnIndex("extra") < 0 {
				t.Fatal("re-applied column missing")
			}
			n, err := db.Query("t").On("master").Where(decibel.Col("extra").Eq(7)).Count()
			if err != nil {
				t.Fatal(err)
			}
			if n != 1 {
				t.Fatalf("default fill after re-apply: %d rows, want 1", n)
			}
		})
	}
}

// TestSchemaEvolutionLinearChain: schema evolution is one linear chain
// of epochs — a branch whose head has not adopted the newest schema
// change (by making it or merging it) cannot commit its own change;
// without this gate the second change would silently surface the
// first branch's unmerged columns.
func TestSchemaEvolutionLinearChain(t *testing.T) {
	db, err := decibel.Open(t.TempDir(), decibel.WithEngine("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	schema := decibel.NewSchema().Int64("id").Int32("qty").MustBuild()
	tbl, err := db.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Init("init"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Branch("master", "dev"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Commit("dev", func(tx *decibel.Tx) error {
		return tx.AddColumn("t", decibel.Int32Column("a"), decibel.Default(1))
	}); err != nil {
		t.Fatal(err)
	}
	// master has not merged dev's change: its own change is rejected ...
	_, err = db.Commit("master", func(tx *decibel.Tx) error {
		return tx.AddColumn("t", decibel.Int32Column("b"), decibel.Default(2))
	})
	if !errors.Is(err, decibel.ErrSchemaChange) {
		t.Fatalf("diverged schema change = %v, want ErrSchemaChange", err)
	}
	// ... and master must not see dev's unmerged column.
	if _, err := db.Query("t").On("master").Select("a").Count(); !errors.Is(err, decibel.ErrColumnNotYetAdded) {
		t.Fatalf("unmerged column on master = %v, want ErrColumnNotYetAdded", err)
	}
	// The evolving branch may keep evolving; after a merge, master may too.
	if _, err := db.Commit("dev", func(tx *decibel.Tx) error {
		return tx.AddColumn("t", decibel.Int32Column("c"), decibel.Default(3))
	}); err != nil {
		t.Fatalf("second change on the evolving branch: %v", err)
	}
	if _, _, err := db.Merge("master", "dev"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Commit("master", func(tx *decibel.Tx) error {
		return tx.AddColumn("t", decibel.Int32Column("b"), decibel.Default(2))
	}); err != nil {
		t.Fatalf("change after merge: %v", err)
	}
	for _, col := range []string{"a", "b", "c"} {
		if tbl.Schema().ColumnIndex(col) < 0 {
			t.Fatalf("column %q missing after merge + change", col)
		}
	}
}

// TestConcurrentSchemaRotation races head scans of one branch against
// writes on another that keep rotating storage to wider layouts (new
// extents in tuple-first, new head segments in vf/hy). Runs under the
// CI race detector via the TestConcurrent pattern.
func TestConcurrentSchemaRotation(t *testing.T) {
	for _, engine := range evolutionEngines() {
		t.Run(engine, func(t *testing.T) {
			db, err := decibel.Open(t.TempDir(), decibel.WithEngine(engine))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			schema := decibel.NewSchema().Int64("id").Int32("qty").MustBuild()
			tbl, err := db.CreateTable("t", schema)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := db.Init("init"); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Commit("master", func(tx *decibel.Tx) error {
				for pk := int64(1); pk <= 20; pk++ {
					rec := decibel.NewRecord(schema)
					rec.SetPK(pk)
					rec.Set(1, pk)
					if err := tx.Insert("t", rec); err != nil {
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

			done := make(chan struct{})
			scanErrs := make(chan error, 1)
			go func() {
				defer close(scanErrs)
				for {
					select {
					case <-done:
						return
					default:
					}
					n := 0
					rows, rowsErr := db.Rows("t", "master")
					for range rows {
						n++
					}
					if err := rowsErr(); err != nil {
						scanErrs <- err
						return
					}
					if n != 20 {
						scanErrs <- fmt.Errorf("master scan saw %d rows, want 20", n)
						return
					}
				}
			}()
			// Each round adds a column on dev (bumping the epoch) and
			// inserts, which rotates dev's storage to the wider layout
			// while the other goroutine keeps scanning master.
			for i := 0; i < 4; i++ {
				col := decibel.Int32Column(fmt.Sprintf("c%d", i))
				if _, err := db.Commit("dev", func(tx *decibel.Tx) error {
					return tx.AddColumn("t", col, decibel.Default(i))
				}); err != nil {
					t.Fatal(err)
				}
				if _, err := db.Commit("dev", func(tx *decibel.Tx) error {
					rec := decibel.NewRecord(tbl.Schema())
					rec.SetPK(int64(100 + i))
					return tx.Insert("t", rec)
				}); err != nil {
					t.Fatal(err)
				}
			}
			close(done)
			if err := <-scanErrs; err != nil {
				t.Fatal(err)
			}
		})
	}
}
