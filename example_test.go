package decibel_test

// Runnable godoc examples: a usage tour of the name-based facade that
// pkg.go.dev renders on the package page. Each example is executed by
// `go test -run Example` in CI, so the documented snippets can never
// drift from the real API.

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"

	"decibel"
)

// Example opens a dataset, initializes it with one table, and commits
// records to master through the name-based write API.
func Example() {
	dir, err := os.MkdirTemp("", "decibel-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := decibel.Open(dir, decibel.WithEngine("hybrid"))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	schema := decibel.NewSchema().Int64("id").Float64("price").Bytes("sku", 12).MustBuild()
	if _, err := db.CreateTable("products", schema); err != nil {
		log.Fatal(err)
	}
	if _, _, err := db.Init("initial catalog"); err != nil {
		log.Fatal(err)
	}

	commit, err := db.Commit("master", func(tx *decibel.Tx) error {
		tx.SetMessage("first product")
		rec := decibel.NewRecord(schema)
		rec.SetPK(1)
		rec.SetFloat64(1, 9.99)
		if err := rec.SetBytes(2, []byte("SKU-0001")); err != nil {
			return err
		}
		return tx.Insert("products", rec)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("committed %q\n", commit.Message)

	rows, scanErr := db.Rows("products", "master")
	for rec := range rows {
		fmt.Printf("pk=%d price=%.2f sku=%s\n", rec.PK(), rec.GetFloat64(1), rec.GetBytes(2))
	}
	if err := scanErr(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// committed "first product"
	// pk=1 price=9.99 sku=SKU-0001
}

// ExampleDB_Commit shows transaction semantics: a callback error aborts
// the commit and none of its writes become visible.
func ExampleDB_Commit() {
	dir, _ := os.MkdirTemp("", "decibel-example-*")
	defer os.RemoveAll(dir)
	db, err := decibel.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	schema := decibel.NewSchema().Int64("id").Int64("qty").MustBuild()
	if _, err := db.CreateTable("inventory", schema); err != nil {
		log.Fatal(err)
	}
	if _, _, err := db.Init("init"); err != nil {
		log.Fatal(err)
	}

	errOutOfStock := errors.New("out of stock")
	_, err = db.Commit("master", func(tx *decibel.Tx) error {
		rec := decibel.NewRecord(schema)
		rec.SetPK(7)
		rec.Set(1, 0)
		if err := tx.Insert("inventory", rec); err != nil {
			return err
		}
		return errOutOfStock // abort: nothing is committed
	})
	fmt.Println("commit error:", err)
	fmt.Println("commits in graph:", db.Graph().NumCommits())
	// Output:
	// commit error: out of stock
	// commits in graph: 1
}

// ExampleDB_Diff branches a dataset, changes both sides, and walks the
// symmetric difference between the two branch heads.
func ExampleDB_Diff() {
	dir, _ := os.MkdirTemp("", "decibel-example-*")
	defer os.RemoveAll(dir)
	db, err := decibel.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	schema := decibel.NewSchema().Int64("id").Int64("v").MustBuild()
	if _, err := db.CreateTable("r", schema); err != nil {
		log.Fatal(err)
	}
	if _, _, err := db.Init("init"); err != nil {
		log.Fatal(err)
	}
	put := func(branch string, pk, v int64) {
		if _, err := db.Commit(branch, func(tx *decibel.Tx) error {
			rec := decibel.NewRecord(schema)
			rec.SetPK(pk)
			rec.Set(1, v)
			return tx.Insert("r", rec)
		}); err != nil {
			log.Fatal(err)
		}
	}
	put("master", 1, 10)
	if _, err := db.Branch("master", "dev"); err != nil {
		log.Fatal(err)
	}
	put("dev", 1, 11) // changed on dev
	put("dev", 2, 20) // new on dev

	diff, diffErr := db.Diff("r", "dev", "master")
	for rec, inDev := range diff {
		side := "master"
		if inDev {
			side = "dev"
		}
		fmt.Printf("only in %s: pk=%d v=%d\n", side, rec.PK(), rec.Get(1))
	}
	if err := diffErr(); err != nil {
		log.Fatal(err)
	}
	// Unordered output:
	// only in dev: pk=1 v=11
	// only in dev: pk=2 v=20
	// only in master: pk=1 v=10
}

// ExampleDB_RowsContext cancels a scan mid-iteration: the iterator
// stops within one record and the trailing error accessor reports
// ctx.Err().
func ExampleDB_RowsContext() {
	dir, _ := os.MkdirTemp("", "decibel-example-*")
	defer os.RemoveAll(dir)
	db, err := decibel.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	schema := decibel.NewSchema().Int64("id").Int64("v").MustBuild()
	if _, err := db.CreateTable("r", schema); err != nil {
		log.Fatal(err)
	}
	if _, _, err := db.Init("init"); err != nil {
		log.Fatal(err)
	}
	if _, err := db.Commit("master", func(tx *decibel.Tx) error {
		for pk := int64(1); pk <= 100_000; pk++ {
			rec := decibel.NewRecord(schema)
			rec.SetPK(pk)
			if err := tx.Insert("r", rec); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	rows, scanErr := db.RowsContext(ctx, "r", "master")
	for range rows {
		seen++
		if seen == 3 {
			cancel() // a deadline or user abort works the same way
		}
	}
	fmt.Println("records seen:", seen)
	fmt.Println("scan ended with context.Canceled:", errors.Is(scanErr(), context.Canceled))
	// Output:
	// records seen: 3
	// scan ended with context.Canceled: true
}

// ExampleDB_Query runs the paper's four query shapes through the
// fluent builder: a predicated single-version scan with projection, a
// positive diff, a version join, and a HEAD() scan over every branch
// annotated with branch membership — all by name, all in one engine
// pass per query.
func ExampleDB_Query() {
	dir, _ := os.MkdirTemp("", "decibel-example-*")
	defer os.RemoveAll(dir)
	db, err := decibel.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	schema := decibel.NewSchema().Int64("id").Float64("price").Bytes("sku", 12).MustBuild()
	if _, err := db.CreateTable("products", schema); err != nil {
		log.Fatal(err)
	}
	if _, _, err := db.Init("init"); err != nil {
		log.Fatal(err)
	}
	// Batch-load master, then branch and discount one product on dev.
	if _, err := db.Commit("master", func(tx *decibel.Tx) error {
		var recs []*decibel.Record
		for pk, price := range map[int64]float64{1: 9.99, 2: 24.50, 3: 3.75} {
			rec := decibel.NewRecord(schema)
			rec.SetPK(pk)
			rec.SetFloat64(1, price)
			if err := rec.SetBytes(2, []byte(fmt.Sprintf("SKU-%04d", pk))); err != nil {
				return err
			}
			recs = append(recs, rec)
		}
		return tx.InsertBatch("products", recs)
	}); err != nil {
		log.Fatal(err)
	}
	if _, err := db.Branch("master", "dev"); err != nil {
		log.Fatal(err)
	}
	if _, err := db.Commit("dev", func(tx *decibel.Tx) error {
		rec := decibel.NewRecord(schema)
		rec.SetPK(2)
		rec.SetFloat64(1, 19.99) // discounted on dev
		if err := rec.SetBytes(2, []byte("SKU-0002")); err != nil {
			return err
		}
		return tx.Insert("products", rec)
	}); err != nil {
		log.Fatal(err)
	}

	// Q1: single-version scan with a typed predicate and projection.
	rows, qErr := db.Query("products").
		On("master").
		Where(decibel.Col("price").Lt(10.0)).
		Select("sku").
		Rows()
	for rec := range rows {
		fmt.Printf("cheap on master: pk=%d sku=%s\n", rec.PK(), rec.GetBytes(1))
	}
	if err := qErr(); err != nil {
		log.Fatal(err)
	}

	// Q2: records at dev's head that master does not have.
	diff, dErr := db.Query("products").Diff("dev", "master")
	for rec := range diff {
		fmt.Printf("only on dev: pk=%d price=%.2f\n", rec.PK(), rec.GetFloat64(1))
	}
	if err := dErr(); err != nil {
		log.Fatal(err)
	}

	// Q3: join the two versions of the discounted product.
	pairs, jErr := db.Query("products").On("master").
		Where(decibel.Col("id").Eq(2)).
		JoinOn(db.Query("products").On("dev"), decibel.On("id", "id")).
		Tuples()
	for pair := range pairs {
		left, right := pair[0], pair[1]
		fmt.Printf("pk=%d master=%.2f dev=%.2f\n", left.PK(), left.GetFloat64(1), right.GetFloat64(1))
	}
	if err := jErr(); err != nil {
		log.Fatal(err)
	}

	// Q4 + aggregate: how many distinct records are live across all
	// branch heads?
	n, err := db.Query("products").Heads().Count()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("records across heads:", n)
	// Unordered output:
	// cheap on master: pk=1 sku=SKU-0001
	// cheap on master: pk=3 sku=SKU-0003
	// only on dev: pk=2 price=19.99
	// pk=2 master=24.50 dev=19.99
	// records across heads: 4
}

// ExampleTx_AddColumn evolves a table's schema on one branch: the new
// column gets a default, rows stored before the change are never
// rewritten (reads fill the default), historical versions keep their
// old shape, and other branches stay unchanged until they merge the
// evolving branch.
func ExampleTx_AddColumn() {
	dir, err := os.MkdirTemp("", "decibel-addcolumn-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := decibel.Open(dir, decibel.WithEngine("hybrid"))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	schema := decibel.NewSchema().Int64("id").Int32("qty").MustBuild()
	if _, err := db.CreateTable("products", schema); err != nil {
		log.Fatal(err)
	}
	if _, _, err := db.Init("catalog"); err != nil {
		log.Fatal(err)
	}
	if _, err := db.Commit("master", func(tx *decibel.Tx) error {
		rec := decibel.NewRecord(schema)
		rec.SetPK(1)
		rec.Set(1, 10)
		return tx.Insert("products", rec)
	}); err != nil {
		log.Fatal(err)
	}
	if _, err := db.Branch("master", "dev"); err != nil {
		log.Fatal(err)
	}

	// Add a price column on dev, with a default for existing rows. The
	// change takes effect at commit; nothing on disk is rewritten.
	if _, err := db.Commit("dev", func(tx *decibel.Tx) error {
		return tx.AddColumn("products", decibel.Float64Column("price"), decibel.Default(9.5))
	}); err != nil {
		log.Fatal(err)
	}

	// dev sees the column (old rows show the default) ...
	rows, rowsErr := db.Query("products").On("dev").Select("qty", "price").Rows()
	for rec := range rows {
		s := rec.Schema()
		fmt.Printf("dev: pk=%d qty=%d price=%.2f\n",
			rec.PK(), rec.Get(s.ColumnIndex("qty")), rec.GetFloat64(s.ColumnIndex("price")))
	}
	if err := rowsErr(); err != nil {
		log.Fatal(err)
	}

	// ... while a query At a version from before the change reports
	// that the column did not exist yet.
	_, err = db.Query("products").On("master").At(1).Select("price").Count()
	fmt.Println("price at master@1:", errors.Is(err, decibel.ErrColumnNotYetAdded))

	// Merging dev carries the schema change to master.
	if _, _, err := db.Merge("master", "dev"); err != nil {
		log.Fatal(err)
	}
	n, err := db.Query("products").On("master").Where(decibel.Col("price").Ge(9.5)).Count()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("master rows at the default price:", n)

	// Output:
	// dev: pk=1 qty=10 price=9.50
	// price at master@1: true
	// master rows at the default price: 1
}

// exampleJoinDB loads a two-table orders/users dataset the join and
// grouping examples share.
func exampleJoinDB(dir string) (*decibel.DB, error) {
	db, err := decibel.Open(dir)
	if err != nil {
		return nil, err
	}
	users := decibel.NewSchema().Int64("id").Int64("region").Bytes("name", 8).MustBuild()
	orders := decibel.NewSchema().Int64("id").Int64("user_id").Int64("qty").Float64("price").MustBuild()
	if _, err := db.CreateTable("users", users); err != nil {
		return nil, err
	}
	if _, err := db.CreateTable("orders", orders); err != nil {
		return nil, err
	}
	if _, _, err := db.Init("init"); err != nil {
		return nil, err
	}
	_, err = db.Commit("master", func(tx *decibel.Tx) error {
		for _, u := range []struct {
			pk, region int64
			name       string
		}{{1, 1, "amy"}, {2, 2, "bo"}} {
			rec := decibel.NewRecord(users)
			rec.SetPK(u.pk)
			rec.Set(1, u.region)
			if err := rec.SetBytes(2, []byte(u.name)); err != nil {
				return err
			}
			if err := tx.Insert("users", rec); err != nil {
				return err
			}
		}
		for _, o := range []struct {
			pk, user, qty int64
			price         float64
		}{{10, 1, 3, 5.00}, {11, 2, 1, 12.50}, {12, 1, 2, 8.25}} {
			rec := decibel.NewRecord(orders)
			rec.SetPK(o.pk)
			rec.Set(1, o.user)
			rec.Set(2, o.qty)
			rec.SetFloat64(3, o.price)
			if err := tx.Insert("orders", rec); err != nil {
				return err
			}
		}
		return nil
	})
	return db, err
}

// ExampleDB_Query_join composes an equi-join across two tables with
// JoinOn: each leg is its own query, and tuples emit one record per
// relation in ascending composite primary-key order.
func ExampleDB_Query_join() {
	dir, _ := os.MkdirTemp("", "decibel-example-*")
	defer os.RemoveAll(dir)
	db, err := exampleJoinDB(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	tuples, tErr := db.Query("orders").
		On("master").
		Where(decibel.Col("qty").Ge(2)).
		JoinOn(db.Query("users"), decibel.On("user_id", "id")).
		Tuples()
	for tup := range tuples {
		order, user := tup[0], tup[1]
		fmt.Printf("order %d x%d -> %s\n", order.PK(), order.Get(2), user.GetBytes(2))
	}
	if err := tErr(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// order 10 x3 -> amy
	// order 12 x2 -> amy
}

// ExampleDB_Query_groupBy folds streaming per-group aggregates with
// GroupBy and the Count/Sum/Min/Max/Avg constructors; groups emit in
// first-arrival order. Group columns may come from any joined relation.
func ExampleDB_Query_groupBy() {
	dir, _ := os.MkdirTemp("", "decibel-example-*")
	defer os.RemoveAll(dir)
	db, err := exampleJoinDB(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	groups, gErr := db.Query("orders").
		On("master").
		GroupBy("user_id").
		Groups(decibel.Count(), decibel.Sum("qty"), decibel.Avg("price"))
	for g := range groups {
		fmt.Printf("user %v: %v orders, %v items, avg %.3f\n",
			g.Key[0], g.Aggs[0], g.Aggs[1], g.Aggs[2])
	}
	if err := gErr(); err != nil {
		log.Fatal(err)
	}

	// Group a join by a column of the joined relation.
	joined, jErr := db.Query("orders").
		On("master").
		JoinOn(db.Query("users"), decibel.On("user_id", "id")).
		GroupBy("region").
		Groups(decibel.Sum("qty"))
	for g := range joined {
		fmt.Printf("region %v: %v items\n", g.Key[0], g.Aggs[0])
	}
	if err := jErr(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// user 1: 2 orders, 5 items, avg 6.625
	// user 2: 1 orders, 1 items, avg 12.500
	// region 1: 5 items
	// region 2: 1 items
}
