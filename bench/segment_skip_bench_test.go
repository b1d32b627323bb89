package bench_test

// Zone-map benchmark: BenchmarkSegmentSkipWhere runs a selective range
// predicate over a table whose live set spans many segments with
// disjoint value ranges, pruned (zone maps on) vs noprune (the reference
// path, Plan.NoPrune). The segs/op and skips/op metrics come from the
// shared segment-scan counters, so the report shows the pruned mode
// reading fewer segments, not just running faster.

import (
	"context"
	"fmt"
	"testing"

	"decibel"
	iquery "decibel/internal/query"
	"decibel/internal/record"
	"decibel/internal/store"
)

const (
	skipWaves    = 8    // segments with disjoint value ranges
	skipWaveRows = 1500 // rows per wave
	skipStride   = 100000
)

// loadSegmentBench builds a master branch whose live records span
// skipWaves segments with disjoint value ranges: each wave after the
// first is loaded on its own branch and merged back, which rotates the
// head segment in both segment-per-branch engines (hybrid freezes the
// old head at the branch point; version-first's merge links a new head
// over both parents), so master's live set stays spread across the
// wave segments.
func loadSegmentBench(tb testing.TB, engine string, opts ...decibel.Option) *decibel.DB {
	tb.Helper()
	db, err := decibel.Open(tb.TempDir(), append([]decibel.Option{decibel.WithEngine(engine),
		decibel.WithPageSize(256 << 10), decibel.WithPoolPages(128)}, opts...)...)
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
			branch = fmt.Sprintf("w%d", wave)
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
		}
	}
	return db
}

// selectivePlan matches exactly one wave's value range.
func selectivePlan(noPrune bool) iquery.Plan {
	lo := int64(skipWaves/2) * skipStride
	return iquery.Plan{
		Table:    "s",
		Branches: []string{decibel.Master},
		AtSeq:    -1,
		Where:    iquery.Col("v").Ge(lo).And(iquery.Col("v").Lt(lo + skipStride)),
		NoPrune:  noPrune,
	}
}

func BenchmarkSegmentSkipWhere(b *testing.B) {
	for _, engine := range []string{"tf", "vf", "hy"} {
		db := loadSegmentBench(b, engine)
		for _, mode := range []string{"pruned", "noprune"} {
			b.Run(fmt.Sprintf("%s/%s", engine, mode), func(b *testing.B) {
				ctx := context.Background()
				// Warm the buffer pool with one unpruned pass so the first
				// mode measured does not pay the cold reads.
				warm, err := selectivePlan(true).Compile(db.Database)
				if err != nil {
					b.Fatal(err)
				}
				if err := warm.Scan(ctx, func(*record.Record) bool { return true }); err != nil {
					b.Fatal(err)
				}
				scanned0, skipped0 := store.SegmentScanCounters()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c, err := selectivePlan(mode == "noprune").Compile(db.Database)
					if err != nil {
						b.Fatal(err)
					}
					rows := 0
					if err := c.Scan(ctx, func(*record.Record) bool { rows++; return true }); err != nil {
						b.Fatal(err)
					}
					if rows != skipWaveRows {
						b.Fatalf("rows = %d, want %d", rows, skipWaveRows)
					}
				}
				scanned1, skipped1 := store.SegmentScanCounters()
				b.ReportMetric(float64(scanned1-scanned0)/float64(b.N), "segs/op")
				b.ReportMetric(float64(skipped1-skipped0)/float64(b.N), "skips/op")
			})
		}
	}
}

// loadDiffBench adds a dev branch to the segment-bench dataset whose
// updates touch a slice of every wave, so the diff spans all segments.
func loadDiffBench(tb testing.TB, engine string) *decibel.DB {
	tb.Helper()
	db := loadSegmentBench(tb, engine)
	if _, err := db.Branch(decibel.Master, "dev"); err != nil {
		tb.Fatal(err)
	}
	schema := decibel.NewSchema().Int64("id").Int64("v").MustBuild()
	if _, err := db.Commit("dev", func(tx *decibel.Tx) error {
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
