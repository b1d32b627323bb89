package bench_test

// Parallel-scan benchmarks: a multi-segment dataset scanned with the
// parallel executor vs the sequential path (Plan.NoParallel, the
// retained baseline). The predicate is broad — every wave matches — so
// the work fans out one goroutine per frozen segment; the pscans/op
// metric shows whether the parallel path actually engaged (it declines
// to 0 when the resolved pool size is 1, e.g. GOMAXPROCS=1 without
// WithScanWorkers).
//
// The loader differs from loadSegmentBench because parallel fan-out
// requires *frozen* wave segments, and the two segment-per-branch
// engines freeze on different events: hybrid freezes a segment when a
// branch is created off the branch it heads, version-first when a
// merge rotates its owner's head away from it. Each wave therefore
// gets a back-merge (rotates the wave branch's head, vf) followed by a
// throwaway branch (freezes the head at the branch point, hy).
// Tuple-first keeps one extent and never fans out — its compensating
// optimization is per-page zone maps, benchmarked elsewhere.
//
//   - BenchmarkParallelScanCount: Count aggregate, the shape with no
//     emit serialization — per-worker partials merged at the end.
//   - BenchmarkParallelScanRows: full row emission through the
//     buffered unit merge, the worst case for parallel overhead.
//   - BenchmarkParallelDiff: dev-vs-master diff spanning every wave.

import (
	"context"
	"fmt"
	"testing"

	"decibel"
	"decibel/internal/core"
	iquery "decibel/internal/query"
	"decibel/internal/record"
)

// loadParallelBench builds a master branch whose live records span
// skipWaves segments that are all frozen, so a master scan fans out on
// the parallel executor in both segment-per-branch engines.
func loadParallelBench(tb testing.TB, engine string) *decibel.DB {
	tb.Helper()
	db, err := decibel.Open(tb.TempDir(), decibel.WithEngine(engine),
		decibel.WithPageSize(256<<10), decibel.WithPoolPages(128))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	schema := decibel.NewSchema().Int64("id").Int64("v").MustBuild()
	if _, err := db.CreateTable("s", schema); err != nil {
		tb.Fatal(err)
	}
	if _, _, err := db.Init("bench"); err != nil {
		tb.Fatal(err)
	}
	for wave := 0; wave < skipWaves; wave++ {
		branch := decibel.Master
		if wave > 0 {
			branch = fmt.Sprintf("pw%d", wave)
			if _, err := db.Branch(decibel.Master, branch); err != nil {
				tb.Fatal(err)
			}
		}
		lo := int64(wave) * skipStride
		if _, err := db.Commit(branch, func(tx *decibel.Tx) error {
			recs := make([]*decibel.Record, skipWaveRows)
			for i := range recs {
				rec := decibel.NewRecord(schema)
				rec.SetPK(int64(wave*skipWaveRows + i))
				rec.Set(1, lo+int64(i))
				recs[i] = rec
			}
			return tx.InsertBatch("s", recs)
		}); err != nil {
			tb.Fatal(err)
		}
		if wave > 0 {
			if _, _, err := db.Merge(decibel.Master, branch); err != nil {
				tb.Fatal(err)
			}
			// Rotate the wave branch's head so version-first stops
			// treating the wave's segment as a mutable head.
			if _, _, err := db.Merge(branch, decibel.Master); err != nil {
				tb.Fatal(err)
			}
		}
		// Freeze the segment at a branch point for hybrid.
		if _, err := db.Branch(branch, fmt.Sprintf("pf%d", wave)); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// loadParallelDiffBench adds a dev branch whose updates touch a slice
// of every wave, so the master-side records of the diff span all the
// frozen wave segments.
func loadParallelDiffBench(tb testing.TB, engine string) *decibel.DB {
	tb.Helper()
	db := loadParallelBench(tb, engine)
	if _, err := db.Branch(decibel.Master, "pdev"); err != nil {
		tb.Fatal(err)
	}
	schema := decibel.NewSchema().Int64("id").Int64("v").MustBuild()
	if _, err := db.Commit("pdev", func(tx *decibel.Tx) error {
		recs := make([]*decibel.Record, 0, skipWaves*skipWaveRows/10)
		for wave := 0; wave < skipWaves; wave++ {
			lo := int64(wave) * skipStride
			for i := 0; i < skipWaveRows/10; i++ {
				rec := decibel.NewRecord(schema)
				rec.SetPK(int64(wave*skipWaveRows + i))
				rec.Set(1, lo+int64(i)+7) // changed copy, same range
				recs = append(recs, rec)
			}
		}
		return tx.InsertBatch("s", recs)
	}); err != nil {
		tb.Fatal(err)
	}
	return db
}

// broadPlan matches every wave, so every frozen segment carries work.
func broadPlan(noParallel bool) iquery.Plan {
	return iquery.Plan{
		Table:      "s",
		Branches:   []string{decibel.Master},
		AtSeq:      -1,
		Where:      iquery.Col("v").Ge(0),
		NoParallel: noParallel,
	}
}

func BenchmarkParallelScanCount(b *testing.B) {
	for _, engine := range []string{"vf", "hy"} {
		db := loadParallelBench(b, engine)
		for _, mode := range []string{"parallel", "sequential"} {
			b.Run(fmt.Sprintf("%s/%s", engine, mode), func(b *testing.B) {
				ctx := context.Background()
				plan := broadPlan(mode == "sequential")
				warm, err := plan.Compile(db.Database)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := warm.Aggregate(ctx, iquery.AggCount, ""); err != nil {
					b.Fatal(err)
				}
				pscans0, _ := core.ParallelScanCounters()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c, err := plan.Compile(db.Database)
					if err != nil {
						b.Fatal(err)
					}
					n, err := c.Aggregate(ctx, iquery.AggCount, "")
					if err != nil {
						b.Fatal(err)
					}
					if int(n) != skipWaves*skipWaveRows {
						b.Fatalf("count = %d, want %d", int(n), skipWaves*skipWaveRows)
					}
				}
				pscans1, _ := core.ParallelScanCounters()
				b.ReportMetric(float64(pscans1-pscans0)/float64(b.N), "pscans/op")
			})
		}
	}
}

func BenchmarkParallelScanRows(b *testing.B) {
	for _, engine := range []string{"vf", "hy"} {
		db := loadParallelBench(b, engine)
		for _, mode := range []string{"parallel", "sequential"} {
			b.Run(fmt.Sprintf("%s/%s", engine, mode), func(b *testing.B) {
				ctx := context.Background()
				plan := broadPlan(mode == "sequential")
				warm, err := plan.Compile(db.Database)
				if err != nil {
					b.Fatal(err)
				}
				if err := warm.Scan(ctx, func(*record.Record) bool { return true }); err != nil {
					b.Fatal(err)
				}
				pscans0, _ := core.ParallelScanCounters()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c, err := plan.Compile(db.Database)
					if err != nil {
						b.Fatal(err)
					}
					rows := 0
					if err := c.Scan(ctx, func(*record.Record) bool { rows++; return true }); err != nil {
						b.Fatal(err)
					}
					if rows != skipWaves*skipWaveRows {
						b.Fatalf("rows = %d, want %d", rows, skipWaves*skipWaveRows)
					}
				}
				pscans1, _ := core.ParallelScanCounters()
				b.ReportMetric(float64(pscans1-pscans0)/float64(b.N), "pscans/op")
			})
		}
	}
}

func BenchmarkParallelDiff(b *testing.B) {
	for _, engine := range []string{"vf", "hy"} {
		db := loadParallelDiffBench(b, engine)
		for _, mode := range []string{"parallel", "sequential"} {
			b.Run(fmt.Sprintf("%s/%s", engine, mode), func(b *testing.B) {
				ctx := context.Background()
				plan := iquery.Plan{
					Table:      "s",
					Branches:   []string{"pdev", decibel.Master},
					AtSeq:      -1,
					Diff:       true,
					NoParallel: mode == "sequential",
				}
				warm, err := plan.Compile(db.Database)
				if err != nil {
					b.Fatal(err)
				}
				if err := warm.Diff(ctx, func(*record.Record) bool { return true }); err != nil {
					b.Fatal(err)
				}
				pscans0, _ := core.ParallelScanCounters()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c, err := plan.Compile(db.Database)
					if err != nil {
						b.Fatal(err)
					}
					rows := 0
					if err := c.Diff(ctx, func(*record.Record) bool { rows++; return true }); err != nil {
						b.Fatal(err)
					}
					if rows != skipWaves*skipWaveRows/10 {
						b.Fatalf("diff rows = %d, want %d", rows, skipWaves*skipWaveRows/10)
					}
				}
				pscans1, _ := core.ParallelScanCounters()
				b.ReportMetric(float64(pscans1-pscans0)/float64(b.N), "pscans/op")
			})
		}
	}
}
