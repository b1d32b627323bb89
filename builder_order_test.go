package decibel_test

// OrderBy/Limit on the query builder: ordered emission in both
// directions, streaming early-exit for Limit alone, the top-k heap
// when both combine, plan-time validation (ErrNoSuchColumn for unknown
// names, ErrBadQuery for projected-out order columns and unsupported
// terminals), and the Context variants.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"decibel"
)

func buildOrderDB(t *testing.T, engine string) *decibel.DB {
	t.Helper()
	db, err := decibel.Open(t.TempDir(), decibel.WithEngine(engine))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	schema := decibel.NewSchema().Int64("id").Int64("v").Float64("price").Bytes("sku", 8).MustBuild()
	if _, err := db.CreateTable("r", schema); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Init("init"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Commit("master", func(tx *decibel.Tx) error {
		// Insert out of order so storage order != any column order.
		for _, pk := range []int64{5, 1, 9, 3, 7, 2, 8, 4, 6, 0} {
			rec := decibel.NewRecord(schema)
			rec.SetPK(pk)
			rec.Set(1, 100-pk)
			rec.SetFloat64(2, float64(pk)*1.5)
			if err := rec.SetBytes(3, []byte(fmt.Sprintf("s%02d", pk))); err != nil {
				return err
			}
			if err := tx.Insert("r", rec); err != nil {
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
		for pk := int64(10); pk < 15; pk++ {
			rec := decibel.NewRecord(schema)
			rec.SetPK(pk)
			rec.Set(1, 100-pk)
			rec.SetFloat64(2, float64(pk)*1.5)
			if err := rec.SetBytes(3, []byte(fmt.Sprintf("s%02d", pk))); err != nil {
				return err
			}
			if err := tx.Insert("r", rec); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

func pks(t *testing.T, rows func(func(*decibel.Record) bool), qErr func() error) []int64 {
	t.Helper()
	var out []int64
	rows(func(rec *decibel.Record) bool {
		out = append(out, rec.PK())
		return true
	})
	if err := qErr(); err != nil {
		t.Fatal(err)
	}
	return out
}

func wantPKs(t *testing.T, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestOrderByLimit(t *testing.T) {
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			db := buildOrderDB(t, engine)

			rows, qErr := db.Query("r").On("master").OrderBy("id", false).Rows()
			wantPKs(t, pks(t, rows, qErr), []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})

			// Descending by a different column: v = 100-pk, so desc v ==
			// asc pk reversed... v desc -> pk asc.
			rows, qErr = db.Query("r").On("master").OrderBy("v", true).Rows()
			wantPKs(t, pks(t, rows, qErr), []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})

			// Float and bytes order columns.
			rows, qErr = db.Query("r").On("master").OrderBy("price", true).Limit(3).Rows()
			wantPKs(t, pks(t, rows, qErr), []int64{9, 8, 7})
			rows, qErr = db.Query("r").On("master").OrderBy("sku", false).Limit(2).Rows()
			wantPKs(t, pks(t, rows, qErr), []int64{0, 1})

			// Top-k with a predicate: the heap sees only matching rows.
			rows, qErr = db.Query("r").On("master").
				Where(decibel.Col("id").Ge(3)).OrderBy("id", false).Limit(4).Rows()
			wantPKs(t, pks(t, rows, qErr), []int64{3, 4, 5, 6})

			// Limit without OrderBy: any 4 distinct rows, streamed.
			rows, qErr = db.Query("r").On("master").Limit(4).Rows()
			if got := pks(t, rows, qErr); len(got) != 4 {
				t.Fatalf("limit-only rows = %v", got)
			}

			// Ordered multi-branch scan: every head row once, ordered.
			rows, qErr = db.Query("r").Heads().OrderBy("id", true).Limit(3).Rows()
			wantPKs(t, pks(t, rows, qErr), []int64{14, 13, 12})

			// Ordered diff: dev-only rows, descending.
			rows, qErr = db.Query("r").OrderBy("id", true).Diff("dev", "master")
			wantPKs(t, pks(t, rows, qErr), []int64{14, 13, 12, 11, 10})

			// Context variant.
			rows, qErr = db.Query("r").On("master").OrderBy("id", false).Limit(1).RowsContext(context.Background())
			wantPKs(t, pks(t, rows, qErr), []int64{0})

			// Plan-time validation.
			_, qErr = db.Query("r").On("master").OrderBy("nope", false).Rows()
			if err := qErr(); !errors.Is(err, decibel.ErrNoSuchColumn) {
				t.Fatalf("unknown order column: %v", err)
			}
			_, qErr = db.Query("r").On("master").Select("v").OrderBy("price", false).Rows()
			if err := qErr(); !errors.Is(err, decibel.ErrBadQuery) {
				t.Fatalf("projected-out order column: %v", err)
			}
			annotated, qErr2 := db.Query("r").Heads().OrderBy("id", false).Annotated()
			for range annotated {
			}
			if err := qErr2(); !errors.Is(err, decibel.ErrBadQuery) {
				t.Fatalf("ordered Annotated: %v", err)
			}
			if _, err := db.Query("r").On("master").Limit(3).Count(); !errors.Is(err, decibel.ErrBadQuery) {
				t.Fatalf("limited Count: %v", err)
			}
		})
	}
}
