package bench_test

// Point-lookup benchmark: Where(Col("id").Eq(k)) on a branch head
// resolved through the engine's LookupPK (lookup: the primary-key index
// on tuple-first and hybrid, a probe of the lineage on version-first) vs
// the retained baseline path (Plan.NoPrune extracts no bounds, so the
// same query runs as a full segment scan). The dataset is the
// segment-skip fixture — 8 waves of live records spread across
// segments — so the scan baseline pays realistic multi-segment cost.

import (
	"context"
	"fmt"
	"testing"

	"decibel"
	"decibel/internal/core"
	iquery "decibel/internal/query"
	"decibel/internal/record"
)

func BenchmarkPointLookup(b *testing.B) {
	for _, engine := range []string{"tf", "vf", "hy"} {
		db := loadSegmentBench(b, engine)
		// A pk from the middle wave: the scan baseline cannot stop at
		// the first segment.
		pk := int64(skipWaves/2*skipWaveRows + 7)
		for _, mode := range []string{"lookup", "scan"} {
			b.Run(fmt.Sprintf("%s/%s", engine, mode), func(b *testing.B) {
				ctx := context.Background()
				plan := iquery.Plan{
					Table:    "s",
					Branches: []string{decibel.Master},
					AtSeq:    -1,
					Where:    iquery.Col("id").Eq(pk),
					NoPrune:  mode == "scan",
				}
				before := core.CountPointLookups()
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
					if rows != 1 {
						b.Fatalf("rows = %d, want 1", rows)
					}
				}
				b.StopTimer()
				served := core.CountPointLookups() - before
				b.ReportMetric(float64(served)/float64(b.N), "lookups/op")
				if mode == "scan" && served != 0 {
					b.Fatalf("baseline mode served %d lookups", served)
				}
				if mode == "lookup" && served != int64(b.N) {
					b.Fatalf("lookup mode served %d of %d as lookups", served, b.N)
				}
			})
		}
	}
}
