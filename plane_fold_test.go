package decibel_test

// The fold over dcz planes against the fold over heap pages and a
// post-hoc reference. Two datasets take the same writes; one is
// compacted, so a fold over it takes its frozen segments' dcz pages
// whole — keys and aggregates read from dict, const and raw planes and
// from delta-encoded columns inside the rows — while the other folds
// heap pages, read from their rows. The compacted table then gets raw
// head rows, so one fold mixes both kinds of page. Every aggregate,
// every key shape and predicates the planes decide fully, partly or
// not at all must give the same groups, in the same order, with every
// float bit for bit, on both datasets and as a fold of the rows the
// same reads return, before and after an AddColumn moves the table to
// a layout its stored pages must be converted to.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"decibel"
	"decibel/internal/store"
)

var (
	foldInts   = []int64{-3, 0, 1, 7, 1 << 30}
	foldFloats = []float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, -2.25, math.Inf(1)}
	foldBytes  = []string{"", "a", "ab", "abc", "b", "zz"}
)

// buildFoldDB writes the fold dataset into dir, compacting it after the
// branches are cut when compact is set. Columns: id and t (delta), k
// (Int32, dict), q (Int64, dict), f (Float64, dict of NaN, ±0 and
// friends), g (Float64, raw), s (Bytes, dict), c (Int64, const on most
// pages).
func buildFoldDB(t *testing.T, dir, engine string, compact bool) *decibel.DB {
	t.Helper()
	db, err := decibel.Open(dir, decibel.WithEngine(engine), decibel.WithPageSize(4096), decibel.WithCompaction("manual"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	schema := decibel.NewSchema().Int64("id").Int32("k").Int64("q").Float64("f").
		Float64("g").Bytes("s", 6).Int64("t").Int64("c").MustBuild()
	if _, err := db.CreateTable("r", schema); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Init("init"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	walk := int64(0)
	load := func(branch string, lo, hi int64) {
		t.Helper()
		if _, err := db.Commit(branch, func(tx *decibel.Tx) error {
			tbl, err := db.TableByName("r")
			if err != nil {
				return err
			}
			br, err := db.BranchNamed(branch)
			if err != nil {
				return err
			}
			s := tbl.SchemaAt(tbl.BranchEpoch(br.ID))
			for pk := lo; pk < hi; pk++ {
				rec := decibel.NewRecord(s)
				rec.SetPK(pk)
				rec.Set(1, foldInts[rng.Intn(len(foldInts))])
				rec.Set(2, foldInts[rng.Intn(len(foldInts))]*3)
				rec.SetFloat64(3, foldFloats[rng.Intn(len(foldFloats))])
				rec.SetFloat64(4, rng.NormFloat64())
				if err := rec.SetBytes(5, []byte(foldBytes[rng.Intn(len(foldBytes))])); err != nil {
					return err
				}
				walk += int64(rng.Intn(5) - 1)
				rec.Set(6, walk)
				rec.Set(7, pk/300)
				if i := s.ColumnIndex("x"); i >= 0 {
					rec.Set(i, pk%4)
				}
				if err := tx.Insert("r", rec); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	load("master", 0, 900)
	if _, err := db.Branch("master", "b1"); err != nil {
		t.Fatal(err)
	}
	load("master", 100, 150) // updates
	if _, err := db.Commit("master", func(tx *decibel.Tx) error {
		for pk := int64(200); pk < 220; pk++ {
			if err := tx.Delete("r", pk); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	load("b1", 900, 960)
	// The merge freezes version-first's master segment; the wider rows
	// of b2 freeze tuple-first's extent; a branch point freezes hybrid's
	// segments.
	if _, _, err := db.Merge("master", "b1"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Branch("master", "b2"); err != nil {
		t.Fatal(err)
	}
	addColumn(t, db, "b2", "x")
	load("b2", 960, 990)
	if compact {
		st, err := db.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if st.SegmentsCompressed == 0 {
			t.Fatalf("compaction did nothing: %+v", st)
		}
	}
	load("master", 990, 1040) // raw head rows
	load("master", 5, 15)
	return db
}

// addColumn adds Int64 column col, default 2, on branch b.
func addColumn(t *testing.T, db *decibel.DB, b, col string) {
	t.Helper()
	if _, err := db.Commit(b, func(tx *decibel.Tx) error {
		return tx.AddColumn("r", decibel.Column{Name: col, Type: decibel.Int64}, decibel.Default(int64(2)))
	}); err != nil {
		t.Fatal(err)
	}
}

// foldValue spells a group key value or an aggregate with every float
// bit, so -0 and +0, and NaN payloads, stay apart.
func foldValue(v any) string {
	switch v := v.(type) {
	case float64:
		return fmt.Sprintf("f%016x", math.Float64bits(v))
	case []byte:
		return fmt.Sprintf("b%q", v)
	}
	return fmt.Sprintf("i%v", v)
}

// foldScalar spells a scalar aggregate's result: its value, or its
// error, an empty scan's ErrNoRows by name.
func foldScalar(v float64, err error) string {
	switch {
	case errors.Is(err, decibel.ErrNoRows):
		return "no rows"
	case err != nil:
		return "ERR " + err.Error()
	}
	return foldValue(v)
}

// foldStreams runs every fold the test crosses over db and returns each
// result, labeled, in emission order; an error is part of its stream.
// With posthoc set, each result is instead the reference fold
// (refFold) of the rows the same read returns.
func foldStreams(t *testing.T, db *decibel.DB, posthoc bool) map[string][]string {
	t.Helper()
	aggCols := []string{"k", "q", "f", "g", "t", "c"}
	aggs := []decibel.Agg{decibel.Count()}
	for _, c := range aggCols {
		aggs = append(aggs, decibel.Sum(c), decibel.Min(c), decibel.Max(c), decibel.Avg(c))
	}
	wheres := map[string]decibel.Expr{
		"all": {},
		// Decided by the dict planes of k and f alone.
		"planes": decibel.Col("k").Eq(0).Or(decibel.Col("k").Eq(7)).Or(decibel.Col("f").Eq(0.0).Not()),
		// g is raw and t delta: rows the k plane does not rule out are
		// decided by the row predicate.
		"rows":  decibel.Col("k").Ne(1).And(decibel.Col("g").Lt(0.3).Or(decibel.Col("t").Ge(5))),
		"mixed": decibel.Col("f").Gt(1.0).Or(decibel.Col("g").Ge(0.0)),
	}
	reads := map[string]func() *decibel.Query{
		"master": func() *decibel.Query { return db.Query("r").On("master") },
		"b1":     func() *decibel.Query { return db.Query("r").On("b1") },
		"b2":     func() *decibel.Query { return db.Query("r").On("b2") },
		"at":     func() *decibel.Query { return db.Query("r").On("master").At(1) },
		"heads":  func() *decibel.Query { return db.Query("r").Heads() },
	}
	keys := [][]string{{"k"}, {"q"}, {"f"}, {"s"}, {"k", "s"}, {"t"}, {"g"}, {"c"}}
	out := map[string][]string{}
	for rn, read := range reads {
		for wn, where := range wheres {
			var rows []*decibel.Record
			if posthoc {
				rows = legRows(t, read().Where(where))
			}
			for _, key := range keys {
				label := fmt.Sprintf("%s %s by %v", rn, wn, key)
				if posthoc {
					out[label] = refFold(rows, key, aggCols)
					continue
				}
				seq, errf := read().Where(where).GroupBy(key...).Groups(aggs...)
				var got []string
				for g := range seq {
					row := ""
					for _, v := range g.Key {
						row += foldValue(v) + " "
					}
					for _, a := range g.Aggs {
						row += " " + foldValue(a)
					}
					got = append(got, row)
				}
				if err := errf(); err != nil {
					got = append(got, "ERR "+err.Error())
				}
				out[label] = got
			}
			for _, c := range aggCols {
				q := read().Where(where)
				label := fmt.Sprintf("%s %s scalar %s", rn, wn, c)
				if posthoc {
					out[label] = refScalars(rows, c)
					continue
				}
				var got []string
				for _, fn := range []func(string) (float64, error){q.Sum, q.Min, q.Max, q.Avg} {
					got = append(got, foldScalar(fn(c)))
				}
				n, err := q.Count()
				out[label] = append(got, fmt.Sprint(n, err))
			}
		}
	}
	return out
}

// refAcc is one reference group's state for one column: its values'
// sum, as an int64 for an integer column, and their extremes.
type refAcc struct {
	isum     int64
	fsum     float64
	min, max float64
}

// add folds one row's value of col, the group's n-th, into a.
func (a *refAcc) add(rec *decibel.Record, col string, n int) {
	sc := rec.Schema()
	ci := sc.ColumnIndex(col)
	var f float64
	if sc.Column(ci).Type == decibel.Float64 {
		f = rec.GetFloat64(ci)
		a.fsum += f
	} else {
		a.isum += rec.Get(ci)
		f = float64(rec.Get(ci))
	}
	if n == 1 || f < a.min {
		a.min = f
	}
	if n == 1 || f > a.max {
		a.max = f
	}
}

// results spells the Sum, Min, Max and Avg of n values of col.
func (a *refAcc) results(rec *decibel.Record, col string, n int) []string {
	sum := float64(a.isum)
	if sc := rec.Schema(); sc.Column(sc.ColumnIndex(col)).Type == decibel.Float64 {
		sum = a.fsum
	}
	return []string{foldValue(sum), foldValue(a.min), foldValue(a.max), foldValue(sum / float64(n))}
}

// refFold is the reference for a grouped fold over rows: groups keyed
// by every bit of their key values, in first-arrival order, with
// Count, then Sum, Min, Max and Avg of every column of cols, each
// folded in row order. It reads the rows a scan returns, not pages.
func refFold(rows []*decibel.Record, key, cols []string) []string {
	type group struct {
		spelled string
		first   *decibel.Record
		n       int
		accs    []refAcc
	}
	groups := map[string]*group{}
	var order []*group
	for _, rec := range rows {
		sc := rec.Schema()
		k := ""
		for _, col := range key {
			ci := sc.ColumnIndex(col)
			switch sc.Column(ci).Type {
			case decibel.Float64:
				k += foldValue(rec.GetFloat64(ci)) + " "
			case decibel.Bytes:
				k += foldValue(rec.GetBytes(ci)) + " "
			default:
				k += foldValue(rec.Get(ci)) + " "
			}
		}
		g := groups[k]
		if g == nil {
			g = &group{spelled: k, first: rec, accs: make([]refAcc, len(cols))}
			groups[k] = g
			order = append(order, g)
		}
		g.n++
		for i, col := range cols {
			g.accs[i].add(rec, col, g.n)
		}
	}
	out := make([]string, len(order))
	for j, g := range order {
		row := g.spelled + " " + foldValue(float64(g.n))
		for i, col := range cols {
			for _, v := range g.accs[i].results(g.first, col, g.n) {
				row += " " + v
			}
		}
		out[j] = row
	}
	return out
}

// refScalars is the reference for the scalar aggregates of col over
// rows, spelled as foldStreams spells them.
func refScalars(rows []*decibel.Record, col string) []string {
	if len(rows) == 0 {
		return []string{foldValue(0.0), "no rows", "no rows", "no rows", "0 <nil>"}
	}
	var a refAcc
	for i, rec := range rows {
		a.add(rec, col, i+1)
	}
	return append(a.results(rows[0], col, len(rows)), fmt.Sprint(len(rows), nil))
}

// TestGroupByPlaneFold: on every engine, a fold that takes compacted
// pages whole answers as a fold over heap pages does over the same
// writes never compacted, and both answer as a post-hoc fold of the
// rows their reads return.
func TestGroupByPlaneFold(t *testing.T) {
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			rowDB := buildFoldDB(t, t.TempDir(), engine, false)
			dczDir := t.TempDir()
			dczDB := buildFoldDB(t, dczDir, engine, true)
			// The folds read every plane kind: k, q, f and s dict, c
			// const, g raw, and id and t from the rows (delta).
			tbl, err := dczDB.TableByName("r")
			if err != nil {
				t.Fatal(err)
			}
			sc := tbl.Schema()
			off := func(col string) int { return sc.ColumnOffset(sc.ColumnIndex(col)) }
			dict, konst := planeKinds(t, dczDir)
			raw := map[int]int{}
			dczPages(t, dczDir, func(pg *store.Page) {
				for _, pl := range pg.Raw {
					raw[pl.Off]++
				}
			})
			if dict[off("k")] == 0 || dict[off("q")] == 0 || dict[off("f")] == 0 || dict[off("s")] == 0 ||
				konst[off("c")] == 0 || raw[off("g")] == 0 {
				t.Fatalf("compacted pages lack a plane kind: dict %v, const %v, raw %v", dict, konst, raw)
			}
			for _, col := range []string{"id", "t"} {
				if dict[off(col)]+konst[off(col)]+raw[off(col)] != 0 {
					t.Fatalf("column %s kept as a plane: dict %v, const %v, raw %v", col, dict, konst, raw)
				}
			}
			compare := func(phase string) {
				t.Helper()
				f0 := expvarInt(t, "decibel.plane_folded_rows")
				want := foldStreams(t, rowDB, false)
				if n := expvarInt(t, "decibel.plane_folded_rows") - f0; n != 0 {
					t.Fatalf("%s: %d rows of the uncompacted dataset folded by planes", phase, n)
				}
				got := foldStreams(t, dczDB, false)
				if expvarInt(t, "decibel.plane_folded_rows") == f0 {
					t.Fatalf("%s: no row of the compacted dataset folded by planes", phase)
				}
				for label, w := range want {
					if g := got[label]; !slices.Equal(g, w) {
						t.Fatalf("%s: %s: planes gave %d groups, rows %d\nplanes: %.400q\nrows:   %.400q",
							phase, label, len(g), len(w), g, w)
					}
				}
				for name, folds := range map[string]map[string][]string{"uncompacted": want, "compacted": got} {
					db := rowDB
					if name == "compacted" {
						db = dczDB
					}
					for label, ref := range foldStreams(t, db, true) {
						if g := folds[label]; !slices.Equal(g, ref) {
							t.Fatalf("%s: %s dataset: %s: fold gave %d groups, post-hoc fold %d\nfold: %.400q\nref:  %.400q",
								phase, name, label, len(g), len(ref), g, ref)
						}
					}
				}
			}
			compare("before AddColumn")
			pre, cancel := context.WithCancel(context.Background())
			cancel()
			groups, errf := dczDB.Query("r").On("master").GroupBy("k").GroupsContext(pre, decibel.Count())
			for g := range groups {
				t.Fatalf("pre-canceled fold over compacted pages emitted group %v", g.Key)
			}
			if err := errf(); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-canceled fold over compacted pages: err=%v, want context.Canceled", err)
			}
			// Merging b2 brings its AddColumn to master, which then reads
			// every stored page through a layout conversion.
			for _, db := range []*decibel.DB{rowDB, dczDB} {
				if _, _, err := db.Merge("master", "b2"); err != nil {
					t.Fatal(err)
				}
			}
			compare("after AddColumn")
		})
	}
}
