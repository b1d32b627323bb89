package bench_test

// BenchmarkQueryShapes runs the paper's four query shapes (Table 1) —
// single-version scan, positive diff, version join, HEAD scan — through
// the facade's query builder at a fixed predicate selectivity.

import (
	"fmt"
	"testing"

	"decibel"
)

const (
	benchBranches = 6
	benchRecords  = 4000 // per-branch live records on master before branching
)

// loadQueryBench builds a flat branching shape through the facade: a
// master with benchRecords rows (batch-inserted), then benchBranches-1
// child branches each updating a distinct 10% slice and adding 5% new
// rows, so heads overlap heavily but differ — the HEAD() scan shape of
// the paper's evaluation.
func loadQueryBench(tb testing.TB, engine string) *decibel.DB {
	tb.Helper()
	db, err := decibel.Open(tb.TempDir(), decibel.WithEngine(engine),
		decibel.WithPageSize(256<<10), decibel.WithPoolPages(128))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	schema := decibel.NewSchema().Int64("id").Int64("v").Int32("pad").MustBuild()
	if _, err := db.CreateTable("r", schema); err != nil {
		tb.Fatal(err)
	}
	if _, _, err := db.Init("bench"); err != nil {
		tb.Fatal(err)
	}
	mk := func(pk, v int64) *decibel.Record {
		rec := decibel.NewRecord(schema)
		rec.SetPK(pk)
		rec.Set(1, v)
		rec.Set(2, v%97)
		return rec
	}
	if _, err := db.Commit(decibel.Master, func(tx *decibel.Tx) error {
		recs := make([]*decibel.Record, benchRecords)
		for i := range recs {
			recs[i] = mk(int64(i), int64(i))
		}
		return tx.InsertBatch("r", recs)
	}); err != nil {
		tb.Fatal(err)
	}
	for bi := 1; bi < benchBranches; bi++ {
		name := fmt.Sprintf("b%d", bi)
		if _, err := db.Branch(decibel.Master, name); err != nil {
			tb.Fatal(err)
		}
		lo := benchRecords / 10 * (bi - 1)
		if _, err := db.Commit(name, func(tx *decibel.Tx) error {
			recs := make([]*decibel.Record, 0, benchRecords/10+benchRecords/20)
			for pk := lo; pk < lo+benchRecords/10; pk++ {
				recs = append(recs, mk(int64(pk), int64(pk+1000000*bi)))
			}
			for pk := benchRecords + benchRecords/20*(bi-1); pk < benchRecords+benchRecords/20*bi; pk++ {
				recs = append(recs, mk(int64(pk), int64(pk)))
			}
			return tx.InsertBatch("r", recs)
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// BenchmarkQueryShapes drives the four paper query shapes through the
// public builder on the hybrid engine (the paper's headline scheme).
func BenchmarkQueryShapes(b *testing.B) {
	db := loadQueryBench(b, "hy")
	pred := decibel.Col("v").Ge(0)

	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n, err := db.Query("r").On("b1").Where(pred).Count()
			if err != nil || n == 0 {
				b.Fatalf("count = %d (%v)", n, err)
			}
		}
	})
	b.Run("diff", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rows, qErr := db.Query("r").Diff("b1", decibel.Master)
			n := 0
			for range rows {
				n++
			}
			if err := qErr(); err != nil || n == 0 {
				b.Fatalf("diff rows = %d (%v)", n, err)
			}
		}
	})
	b.Run("join", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pairs, qErr := db.Query("r").On("b1").Where(pred).
				JoinOn(db.Query("r").On("b2"), decibel.On("id", "id")).Tuples()
			n := 0
			for range pairs {
				n++
			}
			if err := qErr(); err != nil || n == 0 {
				b.Fatalf("join rows = %d (%v)", n, err)
			}
		}
	})
	b.Run("heads", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			annotated, qErr := db.Query("r").Heads().Where(pred).Annotated()
			n := 0
			for range annotated {
				n++
			}
			if err := qErr(); err != nil || n == 0 {
				b.Fatalf("head rows = %d (%v)", n, err)
			}
		}
	})
}
