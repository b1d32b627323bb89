package bench_test

// Version-first resolution benchmarks: the lineage shapes that make
// the vf scheme's read cost interesting, each scanned repeatedly with
// the lineage cache warm, so repeated scans hit cached resolutions and
// scan plans.
//
//   - BenchmarkVFResolve/chain: a 64-commit-deep single-branch history
//     (each commit updates a slice of the table), scanned at the head.
//     Deep histories are where a lineage has the most steps to rank.
//   - BenchmarkVFResolve/fanout: 16 branches forked off one master,
//     each with its own updates, scanned with a multi-branch HEAD()
//     query — k near-identical live sets resolved per request.
//   - BenchmarkVFResolve/fanout-commit: the fanout shape with one fork
//     committing a one-row update between scans (outside the timer),
//     so every scan sees one changed head among k.
//   - BenchmarkVFResolve/mergediff: the post-merge diff shape — a
//     master assembled by repeated merges, a dev branch updating a
//     slice of every wave, positive diff between the two heads.

import (
	"context"
	"fmt"
	"testing"

	"decibel"
	iquery "decibel/internal/query"
	"decibel/internal/record"
)

const (
	resolveChainCommits = 64   // history depth of the chain shape
	resolveChainRows    = 2048 // live rows in the chain table
	resolveFanBranches  = 16   // forks in the fan-out shape
	resolveFanRows      = 2048 // master rows before forking
)

// loadResolveChain builds a master whose head sits on top of
// resolveChainCommits committed windows: a base load, then commits
// each rewriting a rotating 1/8 slice of the table.
func loadResolveChain(tb testing.TB) *decibel.DB {
	tb.Helper()
	db, err := decibel.Open(tb.TempDir(), decibel.WithEngine("vf"),
		decibel.WithPageSize(256<<10), decibel.WithPoolPages(128))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	schema := decibel.NewSchema().Int64("id").Int64("v").MustBuild()
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
		return rec
	}
	if _, err := db.Commit(decibel.Master, func(tx *decibel.Tx) error {
		recs := make([]*decibel.Record, resolveChainRows)
		for i := range recs {
			recs[i] = mk(int64(i), int64(i))
		}
		return tx.InsertBatch("r", recs)
	}); err != nil {
		tb.Fatal(err)
	}
	slice := resolveChainRows / 8
	for c := 0; c < resolveChainCommits; c++ {
		lo := (c % 8) * slice
		if _, err := db.Commit(decibel.Master, func(tx *decibel.Tx) error {
			recs := make([]*decibel.Record, 0, slice)
			for pk := lo; pk < lo+slice; pk++ {
				recs = append(recs, mk(int64(pk), int64(pk+1000*(c+1))))
			}
			return tx.InsertBatch("r", recs)
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// loadResolveFan forks resolveFanBranches branches off one master,
// each committing updates to its own 1/32 slice plus a few new rows.
func loadResolveFan(tb testing.TB) *decibel.DB {
	tb.Helper()
	db, err := decibel.Open(tb.TempDir(), decibel.WithEngine("vf"),
		decibel.WithPageSize(256<<10), decibel.WithPoolPages(128))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	schema := decibel.NewSchema().Int64("id").Int64("v").MustBuild()
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
		return rec
	}
	if _, err := db.Commit(decibel.Master, func(tx *decibel.Tx) error {
		recs := make([]*decibel.Record, resolveFanRows)
		for i := range recs {
			recs[i] = mk(int64(i), int64(i))
		}
		return tx.InsertBatch("r", recs)
	}); err != nil {
		tb.Fatal(err)
	}
	slice := resolveFanRows / 32
	for bi := 0; bi < resolveFanBranches; bi++ {
		name := fmt.Sprintf("f%d", bi)
		if _, err := db.Branch(decibel.Master, name); err != nil {
			tb.Fatal(err)
		}
		lo := bi * slice
		if _, err := db.Commit(name, func(tx *decibel.Tx) error {
			recs := make([]*decibel.Record, 0, slice+4)
			for pk := lo; pk < lo+slice; pk++ {
				recs = append(recs, mk(int64(pk), int64(pk+1000000*(bi+1))))
			}
			for j := 0; j < 4; j++ {
				pk := resolveFanRows + bi*4 + j
				recs = append(recs, mk(int64(pk), int64(pk)))
			}
			return tx.InsertBatch("r", recs)
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// BenchmarkVFResolve measures warm scans of the three lineage shapes.
func BenchmarkVFResolve(b *testing.B) {
	ctx := context.Background()
	// between, when non-nil, runs before every scan with the timer
	// stopped.
	run := func(b *testing.B, db *decibel.DB, plan iquery.Plan, wantRows int, diff bool, between func(i int)) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if between != nil {
				b.StopTimer()
				between(i)
				b.StartTimer()
			}
			c, err := plan.Compile(db.Database)
			if err != nil {
				b.Fatal(err)
			}
			rows := 0
			count := func(*record.Record) bool { rows++; return true }
			if diff {
				err = c.Diff(ctx, count)
			} else if plan.AllHeads {
				err = c.ScanMulti(ctx, func(*record.Record, *decibel.Bitmap) bool { rows++; return true })
			} else {
				err = c.Scan(ctx, count)
			}
			if err != nil {
				b.Fatal(err)
			}
			if rows != wantRows {
				b.Fatalf("rows = %d, want %d", rows, wantRows)
			}
		}
	}

	b.Run("chain", func(b *testing.B) {
		db := loadResolveChain(b)
		plan := iquery.Plan{Table: "r", Branches: []string{decibel.Master}, AtSeq: -1,
			Where: iquery.Col("v").Ge(0)}
		run(b, db, plan, resolveChainRows, false, nil)
	})
	fanPlan := iquery.Plan{Table: "r", AllHeads: true, AtSeq: -1,
		Where: iquery.Col("v").Ge(0)}
	// Union of record copies: master's originals stay live in master,
	// plus each fork's rewritten slice and new rows.
	fanWant := resolveFanRows + resolveFanBranches*(resolveFanRows/32+4)
	b.Run("fanout", func(b *testing.B) {
		run(b, loadResolveFan(b), fanPlan, fanWant, false, nil)
	})
	b.Run("fanout-commit", func(b *testing.B) {
		db := loadResolveFan(b)
		tbl, err := db.TableByName("r")
		if err != nil {
			b.Fatal(err)
		}
		// f0 rewrites a key of its own slice: the old copy was live in
		// f0 alone, so the union keeps its size.
		run(b, db, fanPlan, fanWant, false, func(i int) {
			if _, err := db.Commit("f0", func(tx *decibel.Tx) error {
				rec := decibel.NewRecord(tbl.Schema())
				rec.SetPK(int64(i % (resolveFanRows / 32)))
				rec.Set(1, int64(i))
				return tx.Insert("r", rec)
			}); err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("mergediff", func(b *testing.B) {
		db := loadDiffBench(b, "vf")
		lo := int64(skipWaves/2) * skipStride
		plan := iquery.Plan{Table: "s", Branches: []string{"dev", decibel.Master}, AtSeq: -1, Diff: true,
			Where: iquery.Col("v").Ge(lo).And(iquery.Col("v").Lt(lo + skipStride))}
		run(b, db, plan, skipWaveRows/10, true, nil)
	})
}
