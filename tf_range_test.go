package decibel_test

// Tuple-first range reads across extents: tf's extents span every
// branch's rows, and its later extents number their slots from where
// the one before ends. This test loads sequential data over many small
// pages into two extents (a schema change between the loads opens the
// second), changes rows on a branch, and runs selective range reads of
// every shape — a single-branch scan, a HEAD() scan with membership and
// a symmetric diff — each of which must match its unpruned baseline.

import (
	"context"
	"fmt"
	"testing"

	"decibel"
	iquery "decibel/internal/query"
	"decibel/internal/record"
)

func TestTupleFirstRangeReadsAcrossExtents(t *testing.T) {
	const rows = 2000
	// Small pages: many pages inside each tf extent.
	db, err := decibel.Open(t.TempDir(),
		decibel.WithEngine("tuple-first"), decibel.WithPageSize(2048))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	schema := decibel.NewSchema().Int64("id").Int64("v").MustBuild()
	if _, err := db.CreateTable("r", schema); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Init("init"); err != nil {
		t.Fatal(err)
	}
	// Sequential values: each page holds a narrow contiguous v range.
	load := func(branch string, s *decibel.Schema, lo, hi int64, w int64) {
		t.Helper()
		if _, err := db.Commit(branch, func(tx *decibel.Tx) error {
			recs := make([]*decibel.Record, 0, hi-lo)
			for pk := lo; pk < hi; pk++ {
				rec := decibel.NewRecord(s)
				rec.SetPK(pk)
				rec.Set(1, pk)
				if s.NumColumns() > 2 {
					rec.Set(2, w)
				}
				recs = append(recs, rec)
			}
			return tx.InsertBatch("r", recs)
		}); err != nil {
			t.Fatal(err)
		}
	}
	load("master", schema, 0, rows, 0)
	if _, err := db.Commit("master", func(tx *decibel.Tx) error {
		return tx.AddColumn("r", decibel.Column{Name: "w", Type: decibel.Int64}, decibel.Default(int64(7)))
	}); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.TableByName("r")
	if err != nil {
		t.Fatal(err)
	}
	wide := tbl.Schema()
	load("master", wide, rows, 2*rows, 1)
	if stats := tbl.SegmentStats(); len(stats) != 2 || stats[0].Rows != rows {
		t.Fatalf("want two extents, the first holding %d rows: %+v", rows, stats)
	}
	// dev rewrites ten keys of the range, and one far below it, and
	// deletes one; master rewrites another. Every new copy lands in the
	// second extent. The low key's old copy sits on a page the range
	// does not overlap, so the diff reads a page that holds no match.
	if _, err := db.Branch("master", "dev"); err != nil {
		t.Fatal(err)
	}
	load("dev", wide, 2*rows-10, 2*rows, 2)
	load("dev", wide, rows+100, rows+101, 2)
	if _, err := db.Commit("dev", func(tx *decibel.Tx) error { return tx.Delete("r", 2*rows-12) }); err != nil {
		t.Fatal(err)
	}
	load("master", wide, 2*rows-20, 2*rows-19, 3)

	// The range lies wholly in the second extent; the first extent's
	// zone excludes it.
	run := func(p iquery.Plan) []string {
		t.Helper()
		p.Table, p.AtSeq, p.Where = "r", -1, iquery.Col("v").Ge(2*rows-25)
		c, err := p.Compile(db.Database)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		switch {
		case p.Diff:
			err = c.SymDiff(context.Background(), func(rec *record.Record, inA bool) bool {
				out = append(out, fmt.Sprintf("%s inA=%v", rec, inA))
				return true
			})
		case p.AllHeads:
			err = c.Annotated(context.Background(), func(rec *record.Record, branches []string) bool {
				out = append(out, fmt.Sprintf("%s %v", rec, branches))
				return true
			})
		default:
			err = c.Scan(context.Background(), func(rec *record.Record) bool {
				out = append(out, rec.String())
				return true
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	for _, tc := range []struct {
		name string
		plan iquery.Plan
		rows int
	}{
		{"branch", iquery.Plan{Branches: []string{"dev"}}, 24},
		// 13 keys both heads share, the old and new copies of the 10 dev
		// rewrote and of the 1 master rewrote, and the key dev deleted.
		{"heads", iquery.Plan{AllHeads: true}, 36},
		{"diff", iquery.Plan{Branches: []string{"master", "dev"}, Diff: true}, 23},
	} {
		got := run(tc.plan)

		tc.plan.NoPrune = true
		want := run(tc.plan) // unpruned baseline scans every page
		if len(got) != len(want) {
			t.Fatalf("%s: pruned scan emitted %d rows, unpruned %d", tc.name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: row %d: pruned %q unpruned %q", tc.name, i, got[i], want[i])
			}
		}
		if len(got) != tc.rows {
			t.Fatalf("%s: selective scan emitted %d rows, want %d", tc.name, len(got), tc.rows)
		}
	}
}
