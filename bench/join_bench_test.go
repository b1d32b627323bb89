package bench_test

// Join and group-by benchmarks for the relational-algebra planner:
//
//   - BenchmarkJoin2Way: big ⋈ mid under greedy ordering vs the worst
//     declared order (big first, so the hash side is the large
//     relation; Plan.NoReorder pins it). Greedy picks the small side at
//     plan time from zone-map row estimates.
//   - BenchmarkJoin3Way: big ⋈ mid ⋈ small with a selective predicate
//     on the smallest relation. The declared order is deliberately
//     worst (largest first); the setup asserts both orders emit
//     byte-identical tuple streams before timing, so the speedup is
//     never bought with different results.
//   - BenchmarkGroupBy: the streaming bounded-hash Groups terminal vs
//     gathering rows and folding after the fact — the baseline the
//     grouped path replaces.

import (
	"context"
	"fmt"
	"testing"

	"decibel"
	iquery "decibel/internal/query"
)

const (
	joinBigRows        = 10000
	joinMidRows        = 1000
	joinSmallTableRows = 50
)

// loadJoinBench builds three joinable tables in one version: big
// (joinBigRows; g = pk%64 for grouping), mid, small — big.mid_id keys
// into mid, mid.small_id into small.
func loadJoinBench(tb testing.TB, engine string) *decibel.DB {
	tb.Helper()
	db, err := decibel.Open(tb.TempDir(), decibel.WithEngine(engine),
		decibel.WithPageSize(256<<10), decibel.WithPoolPages(128))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	big := decibel.NewSchema().Int64("id").Int64("mid_id").Int64("g").Int64("v").MustBuild()
	mid := decibel.NewSchema().Int64("id").Int64("small_id").Int64("v").MustBuild()
	small := decibel.NewSchema().Int64("id").Int64("v").MustBuild()
	for _, tbl := range []struct {
		name string
		s    *decibel.Schema
	}{{"big", big}, {"mid", mid}, {"small", small}} {
		if _, err := db.CreateTable(tbl.name, tbl.s); err != nil {
			tb.Fatal(err)
		}
	}
	if _, _, err := db.Init("bench"); err != nil {
		tb.Fatal(err)
	}
	if _, err := db.Commit(decibel.Master, func(tx *decibel.Tx) error {
		recs := make([]*decibel.Record, joinBigRows)
		for i := range recs {
			rec := decibel.NewRecord(big)
			rec.SetPK(int64(i))
			rec.Set(1, int64(i%joinMidRows))
			rec.Set(2, int64(i%64))
			rec.Set(3, int64(i))
			recs[i] = rec
		}
		if err := tx.InsertBatch("big", recs); err != nil {
			return err
		}
		recs = make([]*decibel.Record, joinMidRows)
		for i := range recs {
			rec := decibel.NewRecord(mid)
			rec.SetPK(int64(i))
			rec.Set(1, int64(i%joinSmallTableRows))
			rec.Set(2, int64(i))
			recs[i] = rec
		}
		if err := tx.InsertBatch("mid", recs); err != nil {
			return err
		}
		recs = make([]*decibel.Record, joinSmallTableRows)
		for i := range recs {
			rec := decibel.NewRecord(small)
			rec.SetPK(int64(i))
			rec.Set(1, int64(i))
			recs[i] = rec
		}
		return tx.InsertBatch("small", recs)
	}); err != nil {
		tb.Fatal(err)
	}
	// Freeze the heads at a branch point so hybrid scans frozen,
	// zone-mapped segments — what the greedy orderer estimates from.
	if _, err := db.Branch(decibel.Master, "jf"); err != nil {
		tb.Fatal(err)
	}
	return db
}

// joinPlan composes big ⋈ mid — and, with small, ⋈ small under a
// selective predicate — in the worst declared order, biggest first, so
// greedy reordering has the most to win; declared pins that order.
func joinPlan(small, declared bool) iquery.Plan {
	p := iquery.Plan{Table: "big", Branches: []string{decibel.Master}, AtSeq: -1, NoReorder: declared,
		Joins: []iquery.JoinLeg{{Plan: iquery.Plan{Table: "mid", AtSeq: -1}, LeftCol: "mid_id", RightCol: "id"}}}
	if small {
		p.Joins = append(p.Joins, iquery.JoinLeg{
			Plan:    iquery.Plan{Table: "small", AtSeq: -1, Where: iquery.Col("v").Lt(5)},
			LeftCol: "small_id", RightCol: "id"})
	}
	return p
}

// compileJoin compiles a join plan against db.
func compileJoin(tb testing.TB, db *decibel.DB, p iquery.Plan) *iquery.Compiled {
	tb.Helper()
	c, err := p.Compile(db.Database)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// drainTuples runs the join and returns the formatted stream.
func drainTuples(tb testing.TB, db *decibel.DB, p iquery.Plan) []string {
	tb.Helper()
	var out []string
	if err := compileJoin(tb, db, p).JoinTuples(context.Background(), func(tup iquery.JoinTuple) bool {
		line := ""
		for i, rec := range tup {
			if i > 0 {
				line += " | "
			}
			line += rec.String()
		}
		out = append(out, line)
		return true
	}); err != nil {
		tb.Fatal(err)
	}
	return out
}

// benchJoinCount times compiling and counting the join in each order.
func benchJoinCount(b *testing.B, engine string, db *decibel.DB, small bool, want int) {
	for _, mode := range []string{"greedy", "declared-worst"} {
		b.Run(fmt.Sprintf("%s/%s", engine, mode), func(b *testing.B) {
			p := joinPlan(small, mode == "declared-worst")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := compileJoin(b, db, p).Aggregate(context.Background(), iquery.AggCount, "")
				if err != nil {
					b.Fatal(err)
				}
				if int(n) != want {
					b.Fatalf("count = %d, want %d", int(n), want)
				}
			}
		})
	}
}

func BenchmarkJoin2Way(b *testing.B) {
	for _, engine := range []string{"vf", "hy"} {
		db := loadJoinBench(b, engine)
		for _, declared := range []bool{false, true} {
			if n := len(drainTuples(b, db, joinPlan(false, declared))); n != joinBigRows { // warm
				b.Fatalf("join emitted %d tuples, want %d", n, joinBigRows)
			}
		}
		benchJoinCount(b, engine, db, false, joinBigRows)
	}
}

func BenchmarkJoin3Way(b *testing.B) {
	for _, engine := range []string{"vf", "hy"} {
		db := loadJoinBench(b, engine)
		greedy := drainTuples(b, db, joinPlan(true, false))
		declared := drainTuples(b, db, joinPlan(true, true))
		if len(greedy) != len(declared) {
			b.Fatalf("greedy emitted %d tuples, declared %d", len(greedy), len(declared))
		}
		for i := range greedy {
			if greedy[i] != declared[i] {
				b.Fatalf("tuple %d differs between orders:\n  greedy   %s\n  declared %s", i, greedy[i], declared[i])
			}
		}
		benchJoinCount(b, engine, db, true, len(greedy))
	}
}

func BenchmarkGroupBy(b *testing.B) {
	for _, engine := range []string{"vf", "hy"} {
		db := loadJoinBench(b, engine)
		b.Run(engine+"/streaming", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				groups, errFn := db.Query("big").On(decibel.Master).
					GroupBy("g").Groups(decibel.Count(), decibel.Sum("v"))
				n := 0
				for range groups {
					n++
				}
				if err := errFn(); err != nil {
					b.Fatal(err)
				}
				if n != 64 {
					b.Fatalf("streamed %d groups, want 64", n)
				}
			}
		})
		b.Run(engine+"/gather-and-fold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, errFn := db.Query("big").On(decibel.Master).Rows()
				type acc struct {
					n   int
					sum int64
				}
				m := make(map[int64]*acc)
				for rec := range rows {
					g := rec.Get(2)
					a := m[g]
					if a == nil {
						a = &acc{}
						m[g] = a
					}
					a.n++
					a.sum += rec.Get(3)
				}
				if err := errFn(); err != nil {
					b.Fatal(err)
				}
				if len(m) != 64 {
					b.Fatalf("folded %d groups, want 64", len(m))
				}
			}
		})
	}
}
