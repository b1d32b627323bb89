package bench_test

// Compaction benchmarks: the cost of a pass and what it buys readers.
//
//   - BenchmarkCompactionPass measures one full compaction pass over
//     the segment-bench dataset (8 frozen segments per engine): page
//     re-encoding, with the dataset rebuilt outside the timer each
//     iteration since a pass is idempotent. pages/op and
//     reclaimed-B/op come from the pass stats, so the report shows the
//     pass doing real work.
//   - BenchmarkCompactedScan runs the same selective scan before and
//     after a pass, so the raw/compacted pair shows what decoding
//     compressed pages costs or saves on the read path.

import (
	"context"
	"fmt"
	"testing"

	"decibel"
	"decibel/internal/record"
)

func compactBenchOpts() []decibel.Option {
	return []decibel.Option{decibel.WithCompaction("manual")}
}

// loadCompactBench is the segment-bench dataset plus a schema widening
// and one trailing commit: the tuple-first engine seals an extent only
// when the schema widens, so without the bump every row would still
// sit in the mutable tail extent and a pass would find nothing there.
// The trailing row's value stays out of every wave's range so the
// selective scan counts are unchanged.
func loadCompactBench(tb testing.TB, engine string) *decibel.DB {
	tb.Helper()
	db := loadSegmentBench(tb, engine, compactBenchOpts()...)
	if _, err := db.Commit(decibel.Master, func(tx *decibel.Tx) error {
		return tx.AddColumn("s", decibel.Column{Name: "w", Type: decibel.Int64}, decibel.Default(0))
	}); err != nil {
		tb.Fatal(err)
	}
	tbl, err := db.TableByName("s")
	if err != nil {
		tb.Fatal(err)
	}
	wide := tbl.Schema()
	if _, err := db.Commit(decibel.Master, func(tx *decibel.Tx) error {
		rec := decibel.NewRecord(wide)
		rec.SetPK(int64(skipWaves * skipWaveRows))
		rec.Set(1, int64(-1))
		return tx.InsertBatch("s", []*decibel.Record{rec})
	}); err != nil {
		tb.Fatal(err)
	}
	return db
}

func BenchmarkCompactionPass(b *testing.B) {
	for _, engine := range []string{"tf", "vf", "hy"} {
		b.Run(engine, func(b *testing.B) {
			b.ReportAllocs()
			var pages, reclaimed int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := loadCompactBench(b, engine)
				b.StartTimer()
				st, err := db.Compact()
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if st.SegmentsCompressed == 0 {
					b.Fatalf("pass did nothing: %+v", st)
				}
				pages += st.PagesCompressed
				reclaimed += st.BytesReclaimed
				db.Close()
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
			b.ReportMetric(float64(reclaimed)/float64(b.N), "reclaimed-B/op")
		})
	}
}

func BenchmarkCompactedScan(b *testing.B) {
	for _, engine := range []string{"tf", "vf", "hy"} {
		db := loadCompactBench(b, engine)
		for _, mode := range []string{"raw", "compacted"} {
			if mode == "compacted" {
				if st, err := db.Compact(); err != nil {
					b.Fatal(err)
				} else if st.SegmentsCompressed == 0 {
					b.Fatalf("pass did nothing: %+v", st)
				}
			}
			b.Run(fmt.Sprintf("%s/%s", engine, mode), func(b *testing.B) {
				ctx := context.Background()
				// Warm pass so the first mode measured does not pay the
				// cold page reads.
				warm, err := selectivePlan(false).Compile(db.Database)
				if err != nil {
					b.Fatal(err)
				}
				if err := warm.Scan(ctx, func(*record.Record) bool { return true }); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c, err := selectivePlan(false).Compile(db.Database)
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
			})
		}
	}
}
