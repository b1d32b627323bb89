package decibel_test

// The plane pre-filter against heap pages. Two datasets take the same
// writes; one is compacted, so its frozen segments are dcz pages whose
// columns come out const, dict, raw and delta encoded, and a branch
// created after the pass adds a column, so its reads convert the
// compacted rows (and must walk them as rows). Random predicate trees —
// And/Or/Not, all six comparisons, In-lists, Int32/Int64/Float64 with
// NaN and -0.0, Bytes Eq and HasPrefix — run through every query shape
// on both, and every stream must be the same, row for row.

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"decibel"
	"decibel/internal/store"
)

var (
	planeInts   = []int64{-3, 0, 1, 7, 1 << 30}
	planeFloats = []float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, -2.25, math.Inf(1)}
	planeBytes  = []string{"", "a", "ab", "abc", "b", "zz"}
)

// buildPlaneDB writes the plane dataset into dir, compacting it when
// compact is set. Columns: id (delta), c (const per 200 keys), k
// (Int32, dict), f (Float64, dict of NaN, ±0 and friends), g (Float64,
// raw), s (Bytes, dict), t (Int64, a small random walk: delta).
func buildPlaneDB(t *testing.T, dir, engine string, compact bool) *decibel.DB {
	t.Helper()
	db, err := decibel.Open(dir, decibel.WithEngine(engine), decibel.WithPageSize(4096), decibel.WithCompaction("manual"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	schema := decibel.NewSchema().Int64("id").Int64("c").Int32("k").Float64("f").
		Float64("g").Bytes("s", 6).Int64("t").MustBuild()
	if _, err := db.CreateTable("r", schema); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Init("init"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	walk := int64(0)
	mk := func(s *decibel.Schema, pk int64) *decibel.Record {
		rec := decibel.NewRecord(s)
		rec.SetPK(pk)
		rec.Set(1, pk/200)
		rec.Set(2, planeInts[rng.Intn(len(planeInts))])
		rec.SetFloat64(3, planeFloats[rng.Intn(len(planeFloats))])
		rec.SetFloat64(4, rng.NormFloat64())
		if err := rec.SetBytes(5, []byte(planeBytes[rng.Intn(len(planeBytes))])); err != nil {
			t.Fatal(err)
		}
		walk += int64(rng.Intn(5) - 1)
		rec.Set(6, walk)
		if i := s.ColumnIndex("x"); i >= 0 {
			rec.Set(i, pk%4)
		}
		return rec
	}
	write := func(branch string, fn func(tx *decibel.Tx, s *decibel.Schema) error) {
		t.Helper()
		if _, err := db.Commit(branch, func(tx *decibel.Tx) error {
			tbl, err := db.TableByName("r")
			if err != nil {
				return err
			}
			return fn(tx, tbl.Schema())
		}); err != nil {
			t.Fatal(err)
		}
	}
	load := func(branch string, lo, hi int64) {
		write(branch, func(tx *decibel.Tx, s *decibel.Schema) error {
			for pk := lo; pk < hi; pk++ {
				if err := tx.Insert("r", mk(s, pk)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	load("master", 0, 700)
	if _, err := db.Branch("master", "b1"); err != nil {
		t.Fatal(err)
	}
	load("master", 100, 150) // updates
	write("master", func(tx *decibel.Tx, _ *decibel.Schema) error {
		for pk := int64(200); pk < 220; pk++ {
			if err := tx.Delete("r", pk); err != nil {
				return err
			}
		}
		return nil
	})
	load("b1", 700, 760)
	load("b1", 300, 320)
	if compact {
		st, err := db.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if st.SegmentsCompressed == 0 {
			t.Fatalf("compaction did nothing: %+v", st)
		}
	}
	// b2 reads every older segment through a layout conversion.
	if _, err := db.Branch("master", "b2"); err != nil {
		t.Fatal(err)
	}
	write("b2", func(tx *decibel.Tx, _ *decibel.Schema) error {
		return tx.AddColumn("r", decibel.Column{Name: "x", Type: decibel.Int64}, decibel.Default(int64(2)))
	})
	load("b2", 760, 780)
	load("b2", 5, 15)
	return db
}

// randPlaneExpr draws a predicate tree over the plane dataset.
func randPlaneExpr(rng *rand.Rand, depth int, cols []string) decibel.Expr {
	if depth > 0 && rng.Intn(2) == 0 {
		a := randPlaneExpr(rng, depth-1, cols)
		switch rng.Intn(3) {
		case 0:
			return a.And(randPlaneExpr(rng, depth-1, cols))
		case 1:
			return a.Or(randPlaneExpr(rng, depth-1, cols))
		default:
			return a.Not()
		}
	}
	col := cols[rng.Intn(len(cols))]
	ref := decibel.Col(col)
	var v any
	switch col {
	case "id", "t":
		v = rng.Int63n(800) - 20
		if col == "t" {
			v = rng.Int63n(600) - 50
		}
	case "c", "x":
		v = rng.Int63n(6) - 1
	case "k":
		v = planeInts[rng.Intn(len(planeInts))] + rng.Int63n(2)
	case "f", "g":
		v = append(planeFloats, -1, 2, math.Inf(-1))[rng.Intn(len(planeFloats)+3)]
	case "s":
		v = planeBytes[rng.Intn(len(planeBytes))]
		if rng.Intn(2) == 0 {
			return ref.HasPrefix(v)
		}
	}
	if rng.Intn(5) == 0 && col != "s" { // an In-list: Or'd leaves on one column
		in := ref.Eq(v)
		for i := rng.Intn(4); i >= 0; i-- {
			in = in.Or(randPlaneExpr(rng, 0, []string{col}))
		}
		return in
	}
	switch rng.Intn(6) {
	case 0:
		return ref.Eq(v)
	case 1:
		return ref.Ne(v)
	case 2:
		return ref.Lt(v)
	case 3:
		return ref.Le(v)
	case 4:
		return ref.Gt(v)
	}
	return ref.Ge(v)
}

// planeStreams runs where through every query shape and returns each
// stream, labeled, in emission order; an error is part of its stream.
func planeStreams(t *testing.T, db *decibel.DB, where decibel.Expr) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	rows := func(label string, q *decibel.Query) {
		seq, errf := q.Rows()
		var got []string
		for rec := range seq {
			got = append(got, rec.String())
		}
		if err := errf(); err != nil {
			got = append(got, "ERR "+err.Error())
		}
		out[label] = got
	}
	for _, b := range []string{"master", "b1", "b2"} {
		rows("rows "+b, db.Query("r").On(b).Where(where))
	}
	rows("at", db.Query("r").On("master").At(0).Where(where))
	rows("select", db.Query("r").On("master").Where(where).Select("k", "s"))
	rows("limit", db.Query("r").On("b1").Where(where).Limit(5))
	rows("top-k", db.Query("r").On("master").Where(where).OrderBy("t", true).Limit(7))
	rows("ordered", db.Query("r").On("b2").Where(where).OrderBy("g", false))
	for _, d := range [][2]string{{"master", "b1"}, {"b1", "master"}, {"b2", "master"}} {
		seq, errf := db.Query("r").Where(where).Diff(d[0], d[1])
		var got []string
		for rec := range seq {
			got = append(got, rec.String())
		}
		if err := errf(); err != nil {
			got = append(got, "ERR "+err.Error())
		}
		out["diff "+d[0]+" "+d[1]] = got
	}
	heads, errf := db.Query("r").Heads().Where(where).Annotated()
	var got []string
	for rec, names := range heads {
		got = append(got, rec.String()+" @"+strings.Join(names, ","))
	}
	if err := errf(); err != nil {
		got = append(got, "ERR "+err.Error())
	}
	out["heads"] = got
	groups, errf := db.Query("r").On("master").Where(where).GroupBy("k").Groups(decibel.Count(), decibel.Sum("t"))
	got = nil
	for g := range groups {
		got = append(got, fmt.Sprint(g.Key, g.Aggs))
	}
	if err := errf(); err != nil {
		got = append(got, "ERR "+err.Error())
	}
	out["groups"] = got
	tuples, errf := db.Query("r").On("master").Where(where).
		JoinOn(db.Query("r").On("b1").Where(where), decibel.On("id", "id")).Tuples()
	got = nil
	for tup := range tuples {
		got = append(got, tup[0].String()+" | "+tup[1].String())
	}
	if err := errf(); err != nil {
		got = append(got, "ERR "+err.Error())
	}
	out["join"] = got
	return out
}

// dczPages calls fn for every page of every dcz file under dir.
func dczPages(t *testing.T, dir string, fn func(pg *store.Page)) {
	t.Helper()
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || !strings.HasSuffix(path, ".dcz") {
			return err
		}
		cf, err := store.OpenCompressed(path)
		if err != nil {
			return err
		}
		defer cf.Close()
		for i := 0; int64(i*cf.PerPage()) < cf.Count(); i++ {
			pg, err := cf.Page(i)
			if err != nil {
				return err
			}
			fn(pg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// planeKinds tallies, over every dcz page under dir, the record offsets
// its planes keep dict- and const-encoded.
func planeKinds(t *testing.T, dir string) (dict, konst map[int]int) {
	t.Helper()
	dict, konst = map[int]int{}, map[int]int{}
	dczPages(t, dir, func(pg *store.Page) {
		for _, pl := range pg.Planes {
			if pl.Codes != nil {
				dict[pl.Off]++
			} else {
				konst[pl.Off]++
			}
		}
	})
	return dict, konst
}

// TestPageCacheBytes: Stats reports the decoded dcz pages a dataset
// keeps resident — none before a compaction pass, and once a scan has
// read every page, each page's rows plus the page block its planes
// point into.
// A reopen decodes every page at once: the open's key-version pass
// reads every segment. A compaction pass decodes none of the pages it
// writes.
func TestPageCacheBytes(t *testing.T) {
	cached := func(t *testing.T, db *decibel.DB) int64 {
		t.Helper()
		st, err := db.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return st.PageCacheBytes
	}
	t.Run("hybrid", func(t *testing.T) {
		dir := t.TempDir()
		db := buildPlaneDB(t, dir, "hybrid", false)
		if got := cached(t, db); got != 0 {
			t.Fatalf("page cache holds %d bytes before any segment is compacted, want 0", got)
		}
		if _, err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		rows, errf := db.Query("r").Heads().Annotated()
		n := 0
		for range rows {
			n++
		}
		if err := errf(); err != nil || n == 0 {
			t.Fatalf("HEAD(): %d rows (%v)", n, err)
		}
		var want int64
		dczPages(t, dir, func(pg *store.Page) { want += pg.Bytes() })
		if got := cached(t, db); want == 0 || got != want {
			t.Fatalf("page cache holds %d bytes after a scan of every page, want %d", got, want)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db = buildReopen(t, dir, "hybrid", decibel.WithPageSize(4096))
		if got := cached(t, db); got != want {
			t.Fatalf("page cache holds %d bytes after reopen, want %d", got, want)
		}
	})
	// Tuple-first's first extent freezes once a wider row lands past
	// it; the pass that compacts it reads the heap pages and writes dcz
	// pages, and decodes none of them.
	t.Run("tuple-first", func(t *testing.T) {
		db, err := decibel.Open(t.TempDir(), decibel.WithEngine("tuple-first"),
			decibel.WithPageSize(2048), decibel.WithCompaction("manual"))
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
		insert := func(lo, hi int64) {
			t.Helper()
			if _, err := db.Commit("master", func(tx *decibel.Tx) error {
				tbl, err := db.TableByName("r")
				if err != nil {
					return err
				}
				for pk := lo; pk < hi; pk++ {
					rec := decibel.NewRecord(tbl.Schema())
					rec.SetPK(pk)
					rec.Set(1, pk)
					if err := tx.Insert("r", rec); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		insert(0, 2000)
		if _, err := db.Commit("master", func(tx *decibel.Tx) error {
			return tx.AddColumn("r", decibel.Column{Name: "w", Type: decibel.Int64}, decibel.Default(int64(7)))
		}); err != nil {
			t.Fatal(err)
		}
		insert(2000, 2001)
		st, err := db.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if st.SegmentsCompressed != 1 {
			t.Fatalf("compaction compressed %d extents, want the frozen one: %+v", st.SegmentsCompressed, st)
		}
		if got := cached(t, db); got != 0 {
			t.Fatalf("page cache holds %d bytes right after compaction, want 0", got)
		}
	})
}

// TestPlaneFilterMatchesHeapPages runs on hybrid, whose branch points
// freeze segments for a pass to compact; the walk it checks is core's,
// the same under every engine.
func TestPlaneFilterMatchesHeapPages(t *testing.T) {
	for _, engine := range []string{"hybrid"} {
		t.Run(engine, func(t *testing.T) {
			dczDir := t.TempDir()
			heapDB := buildPlaneDB(t, t.TempDir(), engine, false)
			dczDB := buildPlaneDB(t, dczDir, engine, true)

			// The compacted pages hold every plane kind the filter reads
			// or passes over: c const, k/f/s dict, and id, g, t neither
			// (delta, raw, delta).
			tbl, err := dczDB.TableByName("r")
			if err != nil {
				t.Fatal(err)
			}
			s := tbl.Schema()
			dict, konst := planeKinds(t, dczDir)
			off := func(col string) int { return s.ColumnOffset(s.ColumnIndex(col)) }
			if konst[off("c")] == 0 || dict[off("k")] == 0 || dict[off("f")] == 0 || dict[off("s")] == 0 {
				t.Fatalf("compacted pages lack a plane kind: dict %v, const %v", dict, konst)
			}
			for _, col := range []string{"id", "g", "t"} {
				if dict[off(col)]+konst[off(col)] != 0 {
					t.Fatalf("column %s kept as a dict or const plane: dict %v, const %v", col, dict, konst)
				}
			}

			cols := []string{"id", "c", "k", "f", "g", "s", "t"}
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 80; i++ {
				cs := cols
				if i%6 == 5 {
					cs = append(slices.Clone(cols), "x") // b2's column: other branches fail to compile
				}
				where := randPlaneExpr(rng, 3, cs)
				want, got := planeStreams(t, heapDB, where), planeStreams(t, dczDB, where)
				for label, w := range want {
					if g := got[label]; !slices.Equal(g, w) {
						t.Fatalf("pred %d (%v), %s: dcz pages gave %d rows, heap pages %d\ndcz:  %.300q\nheap: %.300q",
							i, where, label, len(g), len(w), g, w)
					}
				}
			}
			heapSt, err := heapDB.Stats()
			if err != nil {
				t.Fatal(err)
			}
			dczSt, err := dczDB.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if heapSt.PageCacheBytes != 0 || dczSt.PageCacheBytes == 0 {
				t.Fatalf("page cache bytes: heap dataset %d, want 0; compacted %d, want > 0", heapSt.PageCacheBytes, dczSt.PageCacheBytes)
			}
		})
	}
}
