package decibel_test

// Order-aware segment visiting: every OrderBy+Limit query visits scan
// units sorted by the order column's zone bound and skips units that
// provably cannot reach the top-k — and its output must stay
// byte-identical to the same query without Limit (the OrderBy-only
// stable gather, which shares no code with the visit's heap) cut to
// `limit` rows, including arrival-order tie-breaks, for every engine,
// order column, direction, limit and predicate. The test also asserts
// units were actually skipped (decibel.ordered_skips moved), so a
// silently disabled visit path cannot pass.

import (
	"fmt"
	"math/rand"
	"testing"

	"decibel"
	iquery "decibel/internal/query"
)

func TestOrderedVisitEquivalence(t *testing.T) {
	skipsBefore := expvarInt(t, "decibel.ordered_skips")
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			db := buildPruningDB(t, engine)

			type ordered struct {
				col  string
				desc bool
			}
			orders := []ordered{
				{"id", false}, {"id", true},
				{"v", false}, {"v", true},
				{"price", false}, {"price", true}, // widened default + duplicates: heavy ties
				{"sku", false}, {"sku", true}, // bytes bounds, truncated prefixes
			}
			limits := []int{1, 3, 17, 1000} // beyond-result-size limit keeps everything

			preds := []iquery.Expr{
				{},
				iquery.Col("v").Ge(60),
				iquery.Col("sku").HasPrefix("b"),
			}
			rng := rand.New(rand.NewSource(0x0bdeed))
			for i := 0; i < 8; i++ {
				preds = append(preds, randExpr(rng, 1))
			}

			run := func(q *decibel.Query) ([]string, error) { return collectRows(q.Rows()) }
			diff := func(q *decibel.Query) ([]string, error) { return collectRows(q.Diff("master", "b1")) }
			cut := func(rows []string, limit int) []string { return rows[:min(limit, len(rows))] }

			for pi, where := range preds {
				for _, o := range orders {
					// Each shape's reference: the OrderBy-only gather, cut
					// per limit below.
					sorted := func(q *decibel.Query) *decibel.Query { return q.Where(where).OrderBy(o.col, o.desc) }
					scanAll, scanErr := run(sorted(db.Query("r").On("master")))
					atAll, atErr := run(sorted(db.Query("r").On("master").At(2)))
					headsAll, headsErr := run(sorted(db.Query("r").Heads()))
					diffAll, diffErr := diff(sorted(db.Query("r")))
					for _, limit := range limits {
						label := fmt.Sprintf("pred[%d] %s desc=%v limit=%d", pi, o.col, o.desc, limit)
						build := func(q *decibel.Query) *decibel.Query { return sorted(q).Limit(limit) }
						// Single-branch head scan.
						got, gotErr := run(build(db.Query("r").On("master")))
						compareStreams(t, label+" scan", got, cut(scanAll, limit), gotErr, scanErr)
						// Historical commit scan.
						got, gotErr = run(build(db.Query("r").On("master").At(2)))
						compareStreams(t, label+" at", got, cut(atAll, limit), gotErr, atErr)
						// Multi-branch heads scan.
						got, gotErr = run(build(db.Query("r").Heads()))
						compareStreams(t, label+" heads", got, cut(headsAll, limit), gotErr, headsErr)
						// Positive diff.
						got, gotErr = diff(build(db.Query("r")))
						compareStreams(t, label+" diff", got, cut(diffAll, limit), gotErr, diffErr)
					}
				}
			}

			// A top-1 by v over the frozen segments skips units on every
			// engine.
			before := expvarInt(t, "decibel.ordered_skips")
			got, gotErr := run(db.Query("r").On("master").OrderBy("v", true).Limit(1))
			all, allErr := run(db.Query("r").On("master").OrderBy("v", true))
			compareStreams(t, "top-1", got, cut(all, 1), gotErr, allErr)
			if expvarInt(t, "decibel.ordered_skips") == before {
				t.Fatalf("an OrderBy+Limit top-1 skipped no unit (ordered_skips stuck at %d)", before)
			}
		})
	}
	if skipsAfter := expvarInt(t, "decibel.ordered_skips"); skipsAfter == skipsBefore {
		t.Fatalf("ordered visitor never skipped a unit (ordered_skips stuck at %d)", skipsBefore)
	}
}

// compareStreams fails unless the two labeled runs produced identical
// line streams (or identical errors).
func compareStreams(t *testing.T, label string, got, want []string, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: got err=%v, want err=%v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error mismatch: %v vs %v", label, gotErr, wantErr)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: got %d rows, want %d rows", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d: got %q want %q", label, i, got[i], want[i])
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
