package decibel_test

// Zone-map pruning correctness: for random predicates over a dataset
// whose segments span schema epochs (widened defaults must participate
// in bounds), branch points and a merge, a pruned scan must emit
// exactly what the unpruned scan emits — on every engine, for every
// query shape (single branch, historical At, multi-branch, diff). The
// test also asserts pruning actually engaged (segments were skipped),
// so a silently disabled fast path cannot pass.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"decibel"
	iquery "decibel/internal/query"
	"decibel/internal/record"
)

// buildPruningDB loads a small dataset engineered to spread values
// across segments: three insert waves with disjoint ranges, a branch
// per wave boundary (freezing hybrid heads), a schema change between
// wave one and two (price exists only from epoch 1, default 7.5), a
// few deletes and a merge.
func buildPruningDB(t *testing.T, engine string, opts ...decibel.Option) *decibel.DB {
	t.Helper()
	return buildPruningDBIn(t, t.TempDir(), engine, opts...)
}

// buildPruningDBIn is buildPruningDB against a caller-owned directory,
// for tests that close and reopen the dataset (compaction recovery).
func buildPruningDBIn(t *testing.T, dir, engine string, opts ...decibel.Option) *decibel.DB {
	t.Helper()
	db, err := decibel.Open(dir, append([]decibel.Option{decibel.WithEngine(engine)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	base := decibel.NewSchema().Int64("id").Int64("v").Bytes("sku", 8).MustBuild()
	if _, err := db.CreateTable("r", base); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Init("init"); err != nil {
		t.Fatal(err)
	}
	mk := func(s *decibel.Schema, pk int64, tag byte) *decibel.Record {
		rec := decibel.NewRecord(s)
		rec.SetPK(pk)
		rec.Set(1, pk)
		if err := rec.SetBytes(2, []byte(fmt.Sprintf("%c%03d", tag, pk))); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	load := func(branch string, s *decibel.Schema, lo, hi int64, tag byte, price float64) {
		t.Helper()
		if _, err := db.Commit(branch, func(tx *decibel.Tx) error {
			recs := make([]*decibel.Record, 0, hi-lo)
			for pk := lo; pk < hi; pk++ {
				rec := mk(s, pk, tag)
				if i := s.ColumnIndex("price"); i >= 0 {
					rec.SetFloat64(i, price+float64(pk%7))
				}
				recs = append(recs, rec)
			}
			return tx.InsertBatch("r", recs)
		}); err != nil {
			t.Fatal(err)
		}
	}

	load("master", base, 0, 50, 'a', 0) // wave 1, epoch 0
	if _, err := db.Branch("master", "b1"); err != nil {
		t.Fatal(err) // b1 stays at epoch 0 forever
	}
	if _, err := db.Commit("master", func(tx *decibel.Tx) error {
		return tx.AddColumn("r", decibel.Column{Name: "price", Type: decibel.Float64}, decibel.Default(7.5))
	}); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.TableByName("r")
	if err != nil {
		t.Fatal(err)
	}
	wide := tbl.Schema() // id, v, sku, price
	load("master", wide, 50, 100, 'b', 40)
	if _, err := db.Branch("master", "b2"); err != nil {
		t.Fatal(err)
	}
	load("b2", wide, 100, 150, 'c', 90)
	if _, err := db.Commit("master", func(tx *decibel.Tx) error {
		for pk := int64(10); pk < 15; pk++ {
			if err := tx.Delete("r", pk); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Merge("master", "b2"); err != nil {
		t.Fatal(err)
	}
	return db
}

// randExpr builds a random predicate tree of bounded depth over the
// dataset's columns, mixing comparisons the bounds extractor can use
// with ones it cannot (Ne, Not) so both paths stay honest.
func randExpr(rng *rand.Rand, depth int) iquery.Expr {
	if depth > 0 && rng.Intn(3) == 0 {
		a, b := randExpr(rng, depth-1), randExpr(rng, depth-1)
		switch rng.Intn(3) {
		case 0:
			return a.And(b)
		case 1:
			return a.Or(b)
		default:
			return a.Not()
		}
	}
	switch rng.Intn(4) {
	case 0: // v: int64
		v := rng.Int63n(360) - 20
		switch rng.Intn(6) {
		case 0:
			return iquery.Col("v").Eq(v)
		case 1:
			return iquery.Col("v").Ne(v)
		case 2:
			return iquery.Col("v").Lt(v)
		case 3:
			return iquery.Col("v").Le(v)
		case 4:
			return iquery.Col("v").Gt(v)
		default:
			return iquery.Col("v").Ge(v)
		}
	case 1: // price: float64 (added at epoch 1; default 7.5)
		p := []float64{-5, 0, 7.5, 8, 42, 44.5, 90, 96, 160}[rng.Intn(9)]
		switch rng.Intn(5) {
		case 0:
			return iquery.Col("price").Eq(p)
		case 1:
			return iquery.Col("price").Lt(p)
		case 2:
			return iquery.Col("price").Le(p)
		case 3:
			return iquery.Col("price").Gt(p)
		default:
			return iquery.Col("price").Ge(p)
		}
	case 2: // sku: bytes
		sku := fmt.Sprintf("%c%03d", 'a'+byte(rng.Intn(3)), rng.Intn(150))
		switch rng.Intn(5) {
		case 0:
			return iquery.Col("sku").Eq(sku)
		case 1:
			return iquery.Col("sku").Lt(sku)
		case 2:
			return iquery.Col("sku").Ge(sku)
		case 3:
			return iquery.Col("sku").HasPrefix(sku[:1+rng.Intn(2)])
		default:
			return iquery.Col("sku").HasPrefix(sku)
		}
	default: // id
		v := rng.Int63n(170)
		if rng.Intn(2) == 0 {
			return iquery.Col("id").Lt(v)
		}
		return iquery.Col("id").Ge(v)
	}
}

// diffPostFilter is the reference for the diff terminal: the facade's plain
// symmetric diff materializes every differing record and the plan's
// predicate is applied above it, instead of inside the diff's scan
// units. (The plans here carry no projection.)
func diffPostFilter(db *decibel.DB, plan iquery.Plan, c *iquery.Compiled, fn func(*record.Record) bool) error {
	tbl, err := db.TableByName(plan.Table)
	if err != nil {
		return err
	}
	pred, err := iquery.CompileExprAt(plan.Where, tbl.History(), c.Epoch())
	if err != nil {
		return err
	}
	br := c.Branches()
	diff, diffErr := db.Diff(plan.Table, br[0].Name, br[1].Name)
	for rec, inA := range diff {
		if inA && (pred == nil || pred(rec.Bytes())) && !fn(rec) {
			break
		}
	}
	return diffErr()
}

// runShape executes one plan in the given shape ("scan", "multi",
// "diff", "diff-postfilter") and returns its sorted output lines, or
// the error (plan-time errors like ErrColumnNotYetAdded included —
// pruned and unpruned runs must fail identically too).
func runShape(db *decibel.DB, plan iquery.Plan, shape string) ([]string, error) {
	out, err := collectShape(db, plan, shape)
	sort.Strings(out)
	return out, err
}

// collectShape is runShape with the output lines in emission order.
func collectShape(db *decibel.DB, plan iquery.Plan, shape string) ([]string, error) {
	c, err := plan.Compile(db.Database)
	if err != nil {
		return nil, err
	}
	var out []string
	ctx := context.Background()
	switch shape {
	case "diff", "diff-postfilter": // positive diff
		fn := func(rec *record.Record) bool {
			out = append(out, rec.String())
			return true
		}
		if shape == "diff-postfilter" {
			err = diffPostFilter(db, plan, c, fn)
		} else {
			err = c.EmitDiffRows(ctx, fn)
		}
	case "multi":
		err = c.Annotated(ctx, func(rec *record.Record, branches []string) bool {
			out = append(out, fmt.Sprintf("%s @%v", rec, branches))
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

func comparePrunedUnpruned(t *testing.T, db *decibel.DB, plan iquery.Plan, shape, label string) {
	t.Helper()
	pruned := plan
	pruned.NoPrune = false
	unpruned := plan
	unpruned.NoPrune = true

	got, gotErr := runShape(db, pruned, shape)
	want, wantErr := runShape(db, unpruned, shape)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: pruned err=%v unpruned err=%v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error mismatch: %v vs %v", label, gotErr, wantErr)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: pruned %d rows, unpruned %d rows", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d: pruned %q unpruned %q", label, i, got[i], want[i])
		}
	}
	// Diff shape: the pushed-down diff must also equal the retained
	// post-filter baseline.
	if shape == "diff" {
		base, baseErr := runShape(db, unpruned, "diff-postfilter")
		if baseErr != nil {
			t.Fatalf("%s: post-filter baseline: %v", label, baseErr)
		}
		if len(base) != len(got) {
			t.Fatalf("%s: pushdown diff %d rows, post-filter %d rows", label, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("%s: diff row %d: pushdown %q post-filter %q", label, i, got[i], base[i])
			}
		}
	}
}

func TestZoneMapPruningProperty(t *testing.T) {
	scannedBefore, skippedBefore := expvarInt(t, "decibel.segments_scanned"), expvarInt(t, "decibel.segments_skipped")
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			db := buildPruningDB(t, engine)
			rng := rand.New(rand.NewSource(0xdecbe1))
			type shaped struct {
				plan  iquery.Plan
				shape string
			}
			shapes := func(where iquery.Expr) []shaped {
				return []shaped{
					{iquery.Plan{Table: "r", Branches: []string{"master"}, AtSeq: -1, Where: where}, "scan"},
					{iquery.Plan{Table: "r", Branches: []string{"b1"}, AtSeq: -1, Where: where}, "scan"},
					{iquery.Plan{Table: "r", Branches: []string{"b2"}, AtSeq: -1, Where: where}, "scan"},
					{iquery.Plan{Table: "r", Branches: []string{"master"}, AtSeq: 0, Where: where}, "scan"}, // pre-evolution epoch
					{iquery.Plan{Table: "r", Branches: []string{"master", "b1"}, AtSeq: -1, Where: where}, "multi"},
					{iquery.Plan{Table: "r", Branches: []string{"master", "b1"}, AtSeq: -1, Where: where, Diff: true}, "diff"},
				}
			}
			// A few fixed predicates guaranteeing the interesting edges:
			// the widened default (7.5) in and out of range, and prefix
			// bounds at segment boundaries.
			fixed := []iquery.Expr{
				iquery.Col("price").Lt(7.5),
				iquery.Col("price").Eq(7.5),
				iquery.Col("price").Ge(7.5),
				iquery.Col("price").Gt(100),
				iquery.Col("sku").HasPrefix("c"),
				iquery.Col("v").Ge(120).And(iquery.Col("sku").HasPrefix("b")),
			}
			for i, where := range fixed {
				for j, sh := range shapes(where) {
					comparePrunedUnpruned(t, db, sh.plan, sh.shape, fmt.Sprintf("fixed[%d] shape[%d]", i, j))
				}
			}
			for i := 0; i < 60; i++ {
				where := randExpr(rng, 2)
				for j, sh := range shapes(where) {
					comparePrunedUnpruned(t, db, sh.plan, sh.shape, fmt.Sprintf("rand[%d] shape[%d]", i, j))
				}
			}
		})
	}
	scannedAfter, skippedAfter := expvarInt(t, "decibel.segments_scanned"), expvarInt(t, "decibel.segments_skipped")
	if skippedAfter == skippedBefore {
		t.Fatalf("pruning never skipped a segment (scanned %d→%d): zone maps are not engaging",
			scannedBefore, scannedAfter)
	}
}
