package decibel_test

// Query-builder contract tests: the four paper query shapes
// (single-version scan, positive diff, version join, HEAD scan) driven
// through db.Query on every registered engine, with typed name-based
// predicates, projections, aggregates, plan-time sentinel errors and
// context cancellation — exercising both the engines' pushdown fast
// paths and the facade surface above them.

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"
	"sort"
	"testing"

	"decibel"
)

// queryFixture builds, on the given engine: table "products"
// (id, price float64, qty int32, sku bytes8) with pks 1..10 on master
// (price = pk/2, qty = pk, sku = "sku-<pk>"), committed twice (pks 1..5
// at commit seq 1, all ten at seq 2); branch "dev" where pk 3 has
// price 99.5, pk 10 is deleted and pk 11 is added.
func queryFixture(t *testing.T, engine string) *decibel.DB {
	t.Helper()
	db, err := decibel.Open(t.TempDir(), decibel.WithEngine(engine),
		decibel.WithPageSize(64<<10), decibel.WithPoolPages(64))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	schema := decibel.NewSchema().Int64("id").Float64("price").Int32("qty").Bytes("sku", 8).MustBuild()
	if _, err := db.CreateTable("products", schema); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Init("init"); err != nil {
		t.Fatal(err)
	}
	mk := func(pk int64, price float64) *decibel.Record {
		rec := decibel.NewRecord(schema)
		rec.SetPK(pk)
		rec.SetFloat64(1, price)
		rec.Set(2, pk)
		if err := rec.SetBytes(3, []byte("sku-"+string(rune('0'+pk%10)))); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	commit := func(lo, hi int64) {
		t.Helper()
		if _, err := db.Commit("master", func(tx *decibel.Tx) error {
			recs := make([]*decibel.Record, 0, hi-lo+1)
			for pk := lo; pk <= hi; pk++ {
				recs = append(recs, mk(pk, float64(pk)/2))
			}
			return tx.InsertBatch("products", recs)
		}); err != nil {
			t.Fatal(err)
		}
	}
	commit(1, 5)  // seq 1
	commit(6, 10) // seq 2
	if _, err := db.Branch("master", "dev"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Commit("dev", func(tx *decibel.Tx) error {
		if err := tx.Insert("products", mk(3, 99.5)); err != nil {
			return err
		}
		if err := tx.Delete("products", 10); err != nil {
			return err
		}
		return tx.Insert("products", mk(11, 5.5))
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

func collectPKs(t *testing.T, rows func(func(*decibel.Record) bool), qErr func() error) []int64 {
	t.Helper()
	var pks []int64
	for rec := range rows {
		pks = append(pks, rec.PK())
	}
	if err := qErr(); err != nil {
		t.Fatal(err)
	}
	sort.Slice(pks, func(i, j int) bool { return pks[i] < pks[j] })
	return pks
}

func TestQueryBuilderSingleVersionScan(t *testing.T) {
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			db := queryFixture(t, engine)

			// Full scan of master.
			rows, qErr := db.Query("products").On("master").Rows()
			if got := collectPKs(t, rows, qErr); len(got) != 10 {
				t.Fatalf("master rows = %v", got)
			}

			// Typed predicate pushdown: price < 2.0 matches pks 1..3.
			rows, qErr = db.Query("products").On("master").
				Where(decibel.Col("price").Lt(2.0)).Rows()
			if got := collectPKs(t, rows, qErr); !slices.Equal(got, []int64{1, 2, 3}) {
				t.Fatalf("price<2 rows = %v", got)
			}

			// Conjunction + integer column.
			rows, qErr = db.Query("products").On("dev").
				Where(decibel.Col("qty").Ge(3).And(decibel.Col("qty").Le(4))).Rows()
			if got := collectPKs(t, rows, qErr); !slices.Equal(got, []int64{3, 4}) {
				t.Fatalf("qty in [3,4] rows = %v", got)
			}

			// Bytes prefix predicate.
			n, err := db.Query("products").On("master").
				Where(decibel.Col("sku").HasPrefix("sku-")).Count()
			if err != nil || n != 10 {
				t.Fatalf("prefix count = %d (%v)", n, err)
			}

			// Projection keeps the pk and narrows the schema.
			rows, qErr = db.Query("products").On("dev").
				Where(decibel.Col("price").Eq(99.5)).
				Select("price").Rows()
			var got []*decibel.Record
			for rec := range rows {
				got = append(got, rec.Clone())
			}
			if err := qErr(); err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || got[0].PK() != 3 {
				t.Fatalf("projected rows = %v", got)
			}
			if nc := got[0].Schema().NumColumns(); nc != 2 {
				t.Fatalf("projected schema has %d columns, want 2", nc)
			}
			if v := got[0].GetFloat64(1); v != 99.5 {
				t.Fatalf("projected price = %g", v)
			}

			// Historical read: master@1 has only pks 1..5.
			rows, qErr = db.Query("products").On("master").At(1).Rows()
			if got := collectPKs(t, rows, qErr); !slices.Equal(got, []int64{1, 2, 3, 4, 5}) {
				t.Fatalf("master@1 rows = %v", got)
			}
		})
	}
}

func TestQueryBuilderDiffAndJoin(t *testing.T) {
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			db := queryFixture(t, engine)

			// Positive diff dev minus master: updated 3, added 11.
			rows, qErr := db.Query("products").Diff("dev", "master")
			if got := collectPKs(t, rows, qErr); !slices.Equal(got, []int64{3, 11}) {
				t.Fatalf("dev-not-master = %v", got)
			}
			// Reverse side: stale copy of 3, deleted 10.
			rows, qErr = db.Query("products").Diff("master", "dev")
			if got := collectPKs(t, rows, qErr); !slices.Equal(got, []int64{3, 10}) {
				t.Fatalf("master-not-dev = %v", got)
			}
			// Diff with predicate on the emitted side.
			rows, qErr = db.Query("products").
				Where(decibel.Col("id").Gt(5)).Diff("dev", "master")
			if got := collectPKs(t, rows, qErr); !slices.Equal(got, []int64{11}) {
				t.Fatalf("filtered diff = %v", got)
			}

			// Version join master ⋈ dev: shared keys 1..9.
			join := func(left *decibel.Query) (iter.Seq[decibel.JoinTuple], func() error) {
				return left.On("master").JoinOn(db.Query("products").On("dev"), decibel.On("id", "id")).Tuples()
			}
			pairs, jErr := join(db.Query("products"))
			n := 0
			for p := range pairs {
				l, r := p[0], p[1]
				if l.PK() != r.PK() {
					t.Fatalf("join key mismatch: %d vs %d", l.PK(), r.PK())
				}
				if l.PK() == 3 {
					if l.GetFloat64(1) != 1.5 || r.GetFloat64(1) != 99.5 {
						t.Fatalf("join sides swapped: %g / %g", l.GetFloat64(1), r.GetFloat64(1))
					}
				}
				n++
			}
			if err := jErr(); err != nil {
				t.Fatal(err)
			}
			if n != 9 {
				t.Fatalf("join rows = %d, want 9", n)
			}

			// Join with a selective left predicate.
			pairs, jErr = join(db.Query("products").Where(decibel.Col("qty").Eq(5)))
			n = 0
			for range pairs {
				n++
			}
			if err := jErr(); err != nil {
				t.Fatal(err)
			}
			if n != 1 {
				t.Fatalf("selective join rows = %d", n)
			}
		})
	}
}

func TestQueryBuilderMultiBranch(t *testing.T) {
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			db := queryFixture(t, engine)

			// HEAD scan over every branch with membership names.
			perBranch := map[string]int{}
			rows := 0
			annotated, qErr := db.Query("products").Heads().Annotated()
			for rec, branches := range annotated {
				if rec == nil || len(branches) == 0 {
					t.Fatal("record with no active branches")
				}
				for _, b := range branches {
					perBranch[b]++
				}
				rows++
			}
			if err := qErr(); err != nil {
				t.Fatal(err)
			}
			if perBranch["master"] != 10 || perBranch["dev"] != 10 {
				t.Fatalf("per-branch counts = %v", perBranch)
			}
			if rows >= 20 {
				t.Fatalf("rows = %d, expected shared records emitted once", rows)
			}

			// Explicit branch list with a predicate: price < 2 on either
			// head. dev re-priced pk 3 to 99.5, so its copy shows for
			// master only; pks 1,2 are shared.
			seen := map[int64][]string{}
			annotated, qErr = db.Query("products").On("master", "dev").
				Where(decibel.Col("price").Lt(2.0)).Annotated()
			for rec, branches := range annotated {
				seen[rec.PK()] = append([]string(nil), branches...)
			}
			if err := qErr(); err != nil {
				t.Fatal(err)
			}
			if len(seen) != 3 {
				t.Fatalf("matched records = %v", seen)
			}
			if !slices.Equal(seen[1], []string{"master", "dev"}) {
				t.Fatalf("pk 1 branches = %v", seen[1])
			}
			if !slices.Equal(seen[3], []string{"master"}) {
				t.Fatalf("pk 3 branches = %v", seen[3])
			}

			// Rows() over a multi-branch scan yields each record once.
			plain, pErr := db.Query("products").Heads().Rows()
			n := 0
			for range plain {
				n++
			}
			if err := pErr(); err != nil {
				t.Fatal(err)
			}
			if n != rows {
				t.Fatalf("Rows over heads = %d, Annotated = %d", n, rows)
			}
		})
	}
}

func TestQueryBuilderAggregates(t *testing.T) {
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			db := queryFixture(t, engine)

			n, err := db.Query("products").On("master").
				Where(decibel.Col("qty").Le(5)).Count()
			if err != nil || n != 5 {
				t.Fatalf("count = %d (%v)", n, err)
			}
			// Sum of qty (int32) 1..10 = 55.
			s, err := db.Query("products").On("master").Sum("qty")
			if err != nil || s != 55 {
				t.Fatalf("sum = %g (%v)", s, err)
			}
			// Max price on dev is the re-priced record.
			mx, err := db.Query("products").On("dev").Max("price")
			if err != nil || mx != 99.5 {
				t.Fatalf("max = %g (%v)", mx, err)
			}
			mn, err := db.Query("products").On("dev").Min("price")
			if err != nil || mn != 0.5 {
				t.Fatalf("min = %g (%v)", mn, err)
			}
			// Multi-branch count: distinct live records across heads.
			heads, err := db.Query("products").Heads().Count()
			if err != nil {
				t.Fatal(err)
			}
			if heads < 11 || heads >= 20 {
				t.Fatalf("heads count = %d", heads)
			}
			// Min over an empty scan fails with ErrNoRows.
			if _, err := db.Query("products").On("master").
				Where(decibel.Col("price").Gt(1000.0)).Min("price"); !errors.Is(err, decibel.ErrNoRows) {
				t.Fatalf("empty min err = %v", err)
			}
		})
	}
}

func TestQueryBuilderPlanErrors(t *testing.T) {
	db := queryFixture(t, "hybrid")

	check := func(got error, want error, what string) {
		t.Helper()
		if !errors.Is(got, want) {
			t.Fatalf("%s: err = %v, want %v", what, got, want)
		}
	}

	_, err := db.Query("nope").On("master").Count()
	check(err, decibel.ErrNoSuchTable, "unknown table")

	_, err = db.Query("products").On("nope").Count()
	check(err, decibel.ErrNoSuchBranch, "unknown branch")

	_, err = db.Query("products").On("master").
		Where(decibel.Col("nope").Eq(1)).Count()
	check(err, decibel.ErrNoSuchColumn, "unknown predicate column")

	_, err = db.Query("products").On("master").
		Where(decibel.Col("price").HasPrefix("x")).Count()
	check(err, decibel.ErrTypeMismatch, "prefix on float column")

	_, err = db.Query("products").On("master").
		Where(decibel.Col("sku").Eq(7)).Count()
	check(err, decibel.ErrTypeMismatch, "int against bytes column")

	_, err = db.Query("products").On("master").Select("ghost").Count()
	check(err, decibel.ErrNoSuchColumn, "unknown projected column")

	_, err = db.Query("products").On("master").Sum("sku")
	check(err, decibel.ErrTypeMismatch, "sum over bytes column")

	_, err = db.Query("products").On("master").At(99).Count()
	check(err, decibel.ErrNoSuchCommit, "missing commit seq")

	// A negative commit number names no commit either; it must not read
	// the head, whatever the terminal.
	for _, seq := range []int{-1, -3} {
		_, err = db.Query("products").On("master").At(seq).Count()
		check(err, decibel.ErrNoSuchCommit, fmt.Sprintf("At(%d).Count", seq))
		rows, qErr := db.Query("products").At(seq).On("master").Rows()
		for range rows {
			t.Fatalf("At(%d).Rows yielded a row", seq)
		}
		check(qErr(), decibel.ErrNoSuchCommit, fmt.Sprintf("At(%d).Rows", seq))
	}

	_, err = db.Query("products").Heads().At(1).Count()
	check(err, decibel.ErrBadQuery, "At with Heads")

	_, err = db.Query("products").Count()
	check(err, decibel.ErrBadQuery, "no branches")

	_, qErr := db.Query("products").On("master").Heads().Rows()
	check(qErr(), decibel.ErrBadQuery, "On combined with Heads")

	_, qErr = db.Query("products").On("master").Diff("master", "dev")
	check(qErr(), decibel.ErrBadQuery, "Diff combined with On")

	_, err = db.Query("products").On("master", "dev").At(1).Count()
	check(err, decibel.ErrBadQuery, "At with two branches")
}

func TestQueryBuilderContextCancel(t *testing.T) {
	db := queryFixture(t, "hybrid")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, qErr := db.Query("products").On("master").RowsContext(ctx)
	n := 0
	for range rows {
		n++
		if n == 2 {
			cancel()
		}
	}
	if err := qErr(); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled scan err = %v", err)
	}
	if n > 3 {
		t.Fatalf("scan continued after cancel: %d rows", n)
	}

	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := db.Query("products").Heads().CountContext(pre); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled count err = %v", err)
	}
}

func TestMergeContextCancel(t *testing.T) {
	db := queryFixture(t, "hybrid")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := db.MergeContext(ctx, "master", "dev"); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled merge err = %v", err)
	}
	// The canceled merge must not have left master's lock held.
	if _, _, err := db.Merge("master", "dev"); err != nil {
		t.Fatalf("merge after canceled merge: %v", err)
	}
}

func TestInsertBatchRollback(t *testing.T) {
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			db := queryFixture(t, engine)
			boom := errors.New("boom")
			_, err := db.Commit("master", func(tx *decibel.Tx) error {
				schema := decibel.NewSchema().Int64("id").Float64("price").Int32("qty").Bytes("sku", 8).MustBuild()
				recs := make([]*decibel.Record, 0, 3)
				for pk := int64(100); pk < 103; pk++ {
					rec := decibel.NewRecord(schema)
					rec.SetPK(pk)
					recs = append(recs, rec)
				}
				if err := tx.InsertBatch("products", recs); err != nil {
					return err
				}
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatalf("commit err = %v", err)
			}
			n, err := db.Query("products").On("master").
				Where(decibel.Col("id").Ge(100)).Count()
			if err != nil || n != 0 {
				t.Fatalf("rolled-back batch left %d rows (%v)", n, err)
			}
		})
	}
}
