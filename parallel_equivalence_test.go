package decibel_test

// Parallel-vs-sequential scan equivalence: for every engine, worker
// count, query shape and a few hundred random and fixed predicates,
// a scan through the parallel executor must emit exactly what the
// sequential scan emits — same rows, same order, same errors, same
// aggregate values. The dataset is the pruning dataset (multiple
// segments across schema epochs, branches and a merge), which is what
// gives the executor several frozen units to fan out. The test also
// asserts the parallel executor actually engaged, so a silently
// declined pool cannot pass.
//
// Worker counts are pinned with WithScanWorkers rather than GOMAXPROCS
// so the pool engages even on single-core machines; the CI race job
// additionally runs this test under GOMAXPROCS=1 and 4.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"decibel"
	"decibel/internal/core"
	iquery "decibel/internal/query"
	"decibel/internal/record"
)

// collectShape runs one plan shape and returns its output lines in
// emission order (the parallel contract is order-identical streams,
// so no sorting here, unlike runShape).
func collectShape(db *decibel.DB, plan iquery.Plan, shape string) ([]string, error) {
	c, err := plan.Compile(db.Database)
	if err != nil {
		return nil, err
	}
	var out []string
	ctx := context.Background()
	switch shape {
	case "diff":
		err = c.Diff(ctx, func(rec *record.Record) bool {
			out = append(out, rec.String())
			return true
		})
	case "multi":
		err = c.ScanMulti(ctx, func(rec *record.Record, m *decibel.Bitmap) bool {
			key := rec.String() + " @"
			for i := 0; i < len(c.Branches()); i++ {
				if m.Get(i) {
					key += fmt.Sprintf("%d,", i)
				}
			}
			out = append(out, key)
			return true
		})
	default:
		err = c.Scan(ctx, func(rec *record.Record) bool {
			out = append(out, rec.String())
			return true
		})
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// compareStreams fails unless the two labeled runs produced identical
// line streams (or identical errors).
func compareStreams(t *testing.T, label string, got, want []string, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: parallel err=%v sequential err=%v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error mismatch: %v vs %v", label, gotErr, wantErr)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: parallel %d rows, sequential %d rows", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d: parallel %q sequential %q", label, i, got[i], want[i])
		}
	}
}

// collectRows drains a facade Rows/Diff iterator into lines.
func collectRows(seq func(func(*decibel.Record) bool), errFn func() error) ([]string, error) {
	var out []string
	seq(func(rec *decibel.Record) bool {
		out = append(out, rec.String())
		return true
	})
	return out, errFn()
}

// compareParallelSequential runs every plan shape, facade OrderBy/Limit
// shape and aggregate for one predicate, comparing the default
// (parallel-eligible) execution against the Sequential() baseline.
func compareParallelSequential(t *testing.T, db *decibel.DB, where iquery.Expr, label string) {
	t.Helper()
	type shaped struct {
		plan  iquery.Plan
		shape string
	}
	shapes := []shaped{
		{iquery.Plan{Table: "r", Branches: []string{"master"}, AtSeq: -1, Where: where}, "scan"},
		{iquery.Plan{Table: "r", Branches: []string{"b1"}, AtSeq: -1, Where: where}, "scan"},
		{iquery.Plan{Table: "r", Branches: []string{"b2"}, AtSeq: -1, Where: where}, "scan"},
		{iquery.Plan{Table: "r", Branches: []string{"master"}, AtSeq: 0, Where: where}, "scan"}, // commit scan
		{iquery.Plan{Table: "r", Branches: []string{"master"}, AtSeq: 1, Where: where}, "scan"},
		{iquery.Plan{Table: "r", AllHeads: true, AtSeq: -1, Where: where}, "multi"},
		{iquery.Plan{Table: "r", Branches: []string{"master", "b1"}, AtSeq: -1, Where: where}, "multi"},
		{iquery.Plan{Table: "r", Branches: []string{"master", "b1"}, AtSeq: -1, Where: where, Diff: true}, "diff"},
		{iquery.Plan{Table: "r", Branches: []string{"b2", "master"}, AtSeq: -1, Where: where, Diff: true}, "diff"},
	}
	for j, sh := range shapes {
		par := sh.plan
		seq := sh.plan
		seq.NoParallel = true
		got, gotErr := collectShape(db, par, sh.shape)
		want, wantErr := collectShape(db, seq, sh.shape)
		compareStreams(t, fmt.Sprintf("%s shape[%d:%s]", label, j, sh.shape), got, want, gotErr, wantErr)
	}

	// Facade shapes: OrderBy alone gathers the pooled stream and Limit
	// alone trims each pooled unit, which must stay byte-identical (the
	// order columns carry heavy duplication, so ties are exercised);
	// OrderBy+Limit takes the ordered visit either way.
	type facadeShape struct {
		name  string
		build func(q *decibel.Query) *decibel.Query
		run   func(q *decibel.Query) ([]string, error)
	}
	rows := func(q *decibel.Query) ([]string, error) { return collectRows(q.Rows()) }
	diff := func(q *decibel.Query) ([]string, error) { return collectRows(q.Diff("master", "b1")) }
	fshapes := []facadeShape{
		{"rows-order", func(q *decibel.Query) *decibel.Query { return q.On("master").OrderBy("v", false) }, rows},
		{"rows-order-desc-limit", func(q *decibel.Query) *decibel.Query { return q.On("master").OrderBy("price", true).Limit(7) }, rows},
		{"rows-order-limit-ties", func(q *decibel.Query) *decibel.Query { return q.On("master").OrderBy("price", false).Limit(11) }, rows},
		{"rows-limit", func(q *decibel.Query) *decibel.Query { return q.On("master").Limit(9) }, rows},
		{"rows-multi-limit", func(q *decibel.Query) *decibel.Query { return q.Heads().Limit(13) }, rows},
		{"diff-order-limit", func(q *decibel.Query) *decibel.Query { return q.OrderBy("v", true).Limit(5) }, diff},
	}
	for _, fs := range fshapes {
		got, gotErr := fs.run(fs.build(db.Query("r").Where(where)))
		want, wantErr := fs.run(fs.build(db.Query("r").Where(where)).Sequential())
		compareStreams(t, label+" "+fs.name, got, want, gotErr, wantErr)
	}

	// Aggregates: partial-merge results must match the sequential fold
	// exactly (the dataset's values are binary fractions, so even the
	// float sum is associativity-proof).
	aggs := []struct {
		name string
		run  func(q *decibel.Query) (float64, error)
	}{
		{"count", func(q *decibel.Query) (float64, error) { n, err := q.On("master").Count(); return float64(n), err }},
		{"count-heads", func(q *decibel.Query) (float64, error) { n, err := q.Heads().Count(); return float64(n), err }},
		{"sum-v", func(q *decibel.Query) (float64, error) { return q.On("master").Sum("v") }},
		{"sum-price", func(q *decibel.Query) (float64, error) { return q.On("master").Sum("price") }},
		{"min-price", func(q *decibel.Query) (float64, error) { return q.On("master").Min("price") }},
		{"max-v", func(q *decibel.Query) (float64, error) { return q.On("b2").Max("v") }},
		{"min-at", func(q *decibel.Query) (float64, error) { return q.On("master").At(0).Min("v") }},
	}
	for _, ag := range aggs {
		got, gotErr := ag.run(db.Query("r").Where(where))
		want, wantErr := ag.run(db.Query("r").Where(where).Sequential())
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s %s: parallel err=%v sequential err=%v", label, ag.name, gotErr, wantErr)
		}
		if gotErr == nil && got != want {
			t.Fatalf("%s %s: parallel %v sequential %v", label, ag.name, got, want)
		}
	}
}

func TestParallelScanEquivalence(t *testing.T) {
	scansBefore, unitsBefore := core.ParallelScanCounters()
	for _, engine := range facadeEngines {
		for _, workers := range []int{2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", engine, workers), func(t *testing.T) {
				db := buildPruningDB(t, engine, decibel.WithScanWorkers(workers))
				fixed := []iquery.Expr{
					{}, // match-all: the widest streams
					iquery.Col("price").Lt(7.5),
					iquery.Col("price").Eq(7.5),
					iquery.Col("price").Ge(7.5),
					iquery.Col("price").Gt(100),
					iquery.Col("sku").HasPrefix("c"),
					iquery.Col("v").Ge(120).And(iquery.Col("sku").HasPrefix("b")),
				}
				for i, where := range fixed {
					compareParallelSequential(t, db, where, fmt.Sprintf("fixed[%d]", i))
				}
				rng := rand.New(rand.NewSource(0x9a7a11e1))
				for i := 0; i < 26; i++ {
					compareParallelSequential(t, db, randExpr(rng, 2), fmt.Sprintf("rand[%d]", i))
				}
			})
		}
	}
	scansAfter, unitsAfter := core.ParallelScanCounters()
	if scansAfter == scansBefore || unitsAfter == unitsBefore {
		t.Fatalf("parallel executor never engaged (scans %d→%d, pool units %d→%d)",
			scansBefore, scansAfter, unitsBefore, unitsAfter)
	}
}

// TestParallelSymmetricDiff: DB.Diff streams both sides of the diff,
// each record flagged with its side, through the query layer — so it
// may fan out on the scan pool, where every unit buffers its rows until
// the flush. The side must survive that buffering: the stream under
// four workers equals the stream under one, record for record and side
// for side, on the engines whose diffs partition into frozen units.
func TestParallelSymmetricDiff(t *testing.T) {
	pairs := [][2]string{{"master", "b1"}, {"b1", "master"}, {"b2", "b1"}, {"master", "b2"}}
	diffs := func(t *testing.T, db *decibel.DB) []string {
		t.Helper()
		var out []string
		for _, p := range pairs {
			seq, errFn := db.Diff("r", p[0], p[1])
			for rec, inA := range seq {
				out = append(out, fmt.Sprintf("%s-%s inA=%v %s", p[0], p[1], inA, rec))
			}
			if err := errFn(); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	for _, engine := range []string{"version-first", "hybrid"} {
		t.Run(engine, func(t *testing.T) {
			dir := t.TempDir()
			db := buildPruningDBIn(t, dir, engine, decibel.WithScanWorkers(4))
			scansBefore, unitsBefore := core.ParallelScanCounters()
			par := diffs(t, db)
			scansAfter, unitsAfter := core.ParallelScanCounters()
			if scansAfter == scansBefore || unitsAfter == unitsBefore {
				t.Fatalf("DB.Diff never engaged the pool (scans %d→%d, pool units %d→%d)",
					scansBefore, scansAfter, unitsBefore, unitsAfter)
			}
			sides := map[bool]bool{}
			for _, line := range par {
				sides[strings.Contains(line, "inA=true")] = true
			}
			if !sides[true] || !sides[false] {
				t.Fatalf("diff stream lacks a side: %v", sides)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			seqDB, err := decibel.Open(dir, decibel.WithEngine(engine), decibel.WithScanWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			defer seqDB.Close()
			compareStreams(t, engine, par, diffs(t, seqDB), nil, nil)
		})
	}
}
