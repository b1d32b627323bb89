package decibel_test

// Allocation ceilings for the read paths the benchmark gates at a 1%
// bound (allocs_per_read_op): a head point lookup — of a key whose
// newest version the branch holds, and of one another branch has since
// rewritten, so the index walk passes versions the branch cannot see —
// a point lookup pinned to a commit the key was rewritten after, one
// pinned to the branch's newest commit (the served read's shape), whose
// bitmaps come from memory, a sequential Q1-shaped head scan, and a warm
// HEAD() scan of every branch, a warm symmetric diff of two, the
// positive diff of the same two, and a scalar fold (Sum) over the
// head, whose rows the fold does not keep. The dataset is the pruning dataset — several segments across two schema
// epochs — so the per-unit costs (layout conversion, zone checks) are
// part of the count. Every ceiling is the count measured once the row
// terminals stopped allocating a record per row, plus at most one: one
// more closure, sink or slice per read fails here before it fails the
// benchmark gate, and so does one per row.

import (
	"fmt"
	"testing"

	"decibel"
)

// readAllocCeilings is allocations per read, by engine: measured + 1,
// or the measured count itself where an earlier ceiling already was
// (version-first's older-commit lookup). A commit-log checkout reads its
// entries through one buffer and XORs them in place: hybrid's and
// tuple-first's older-commit lookups fell from 28 to 22 when it stopped
// decoding a bitmap per entry. The folds fell by three, to 34, 30 and
// 29, when a scalar aggregate's one group stopped costing a key table,
// a group pointer and an order entry. The positive diff (Query.Diff)
// walks A AND NOT B: at 47, 37 and 40 allocations when it walked the
// XOR and dropped B's rows, 38, 34 and 39 since. Every scan, diff and
// fold fell by two when the unit walk stopped binding a per-slot page
// closure and a per-row body closure per runner.
var readAllocCeilings = map[string]struct{ point, walk, scan, atCommit, atNewest, heads, diff, posDiff, fold float64 }{
	"hybrid":        {point: 23, walk: 23, scan: 55, atCommit: 23, atNewest: 23, heads: 58, diff: 44, posDiff: 37, fold: 33},
	"tuple-first":   {point: 23, walk: 23, scan: 51, atCommit: 23, atNewest: 23, heads: 46, diff: 34, posDiff: 33, fold: 29},
	"version-first": {point: 23, walk: 23, scan: 50, atCommit: 20, atNewest: 21, heads: 45, diff: 37, posDiff: 38, fold: 28},
}

// planeScanAllocCeiling is the allocations of a `k ∈ S` head scan of a
// compacted hybrid table, whose dcz pages the plane pre-filter decides:
// measured + 1. It was 68 while the plane program compiled its
// one-column predicate a second time; the program now takes the plan's
// compiled predicate as its one step.
const planeScanAllocCeiling = 61

// TestPlaneScanAllocCeiling: the plane pre-filter's cost is per scan —
// its steps, tables and stack — never per page or per row.
func TestPlaneScanAllocCeiling(t *testing.T) {
	db := buildPlaneDB(t, t.TempDir(), "hybrid", true)
	in := decibel.Col("k").Eq(0).Or(decibel.Col("k").Eq(7)).Or(decibel.Col("k").Eq(1 << 30))
	q := db.Query("r").On("master").Where(in)
	want := 0
	rows, errf := q.Rows()
	for range rows {
		want++
	}
	if err := errf(); err != nil || want == 0 {
		t.Fatalf("%d rows (%v)", want, err)
	}
	scan := func() {
		rows, errf := q.Rows()
		n := 0
		for range rows {
			n++
		}
		if err := errf(); err != nil || n != want {
			t.Fatalf("%d rows (%v), want %d", n, err, want)
		}
	}
	got := testing.AllocsPerRun(50, scan)
	if got > planeScanAllocCeiling {
		t.Errorf("k ∈ S scan of dcz pages: %.0f allocs/op, ceiling %d", got, planeScanAllocCeiling)
	}
}

func TestReadAllocCeilings(t *testing.T) {
	for engine, want := range readAllocCeilings {
		t.Run(engine, func(t *testing.T) {
			db := buildPruningDB(t, engine)
			// b2 rewrites key 61 three times; master keeps the older copy.
			// pinned is b2's first rewrite: a read at it passes over the two
			// later ones.
			var pinned, newest *decibel.Commit
			for i := 0; i < 3; i++ {
				c, err := db.Commit("b2", func(tx *decibel.Tx) error {
					tbl, err := db.TableByName("r")
					if err != nil {
						return err
					}
					rec := decibel.NewRecord(tbl.Schema())
					rec.SetPK(61)
					rec.Set(1, int64(1000+i))
					return tx.Insert("r", rec)
				})
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					pinned = c
				}
				newest = c
			}
			drain := func(q *decibel.Query, wantRows int) func() {
				return func() {
					rows, errf := q.Rows()
					n := 0
					for range rows {
						n++
					}
					if err := errf(); err != nil || n != wantRows {
						t.Fatalf("%d rows (%v), want %d", n, err, wantRows)
					}
				}
			}
			point := drain(db.Query("r").On("master").Where(decibel.Col("id").Eq(int64(60))), 1)
			walk := drain(db.Query("r").On("master").Where(decibel.Col("id").Eq(int64(61))), 1)
			atCommit := drain(db.Query("r").On("b2").AtCommit(pinned.ID).Where(decibel.Col("id").Eq(int64(61))), 1)
			atNewest := drain(db.Query("r").On("b2").AtCommit(newest.ID).Where(decibel.Col("id").Eq(int64(61))), 1)
			scan := drain(db.Query("r").On("master").
				Where(decibel.Col("v").Ge(int64(20)).And(decibel.Col("v").Lt(int64(120)))).
				Select("v", "sku"), 100)
			heads := func() {
				rows, errf := db.Query("r").Heads().Annotated()
				n := 0
				for range rows {
					n++
				}
				if err := errf(); err != nil || n != 151 {
					t.Fatalf("HEAD(): %d rows (%v), want 151", n, err)
				}
			}
			diff := func() {
				rows, errf := db.Diff("r", "b2", "master")
				n := 0
				for range rows {
					n++
				}
				if err := errf(); err != nil || n != 7 {
					t.Fatalf("diff: %d rows (%v), want 7", n, err)
				}
			}
			posDiff := func() {
				rows, errf := db.Query("r").Diff("b2", "master")
				n := 0
				for range rows {
					n++
				}
				if err := errf(); err != nil || n != 6 {
					t.Fatalf("positive diff: %d rows (%v), want 6", n, err)
				}
			}
			fold := func() {
				if sum, err := db.Query("r").On("master").Sum("v"); err != nil || sum == 0 {
					t.Fatalf("Sum: %v (%v)", sum, err)
				}
			}
			if got := testing.AllocsPerRun(50, point); got > want.point {
				t.Errorf("point lookup: %.0f allocs/op, ceiling %.0f", got, want.point)
			}
			if got := testing.AllocsPerRun(50, walk); got > want.walk {
				t.Errorf("point lookup past newer versions: %.0f allocs/op, ceiling %.0f", got, want.walk)
			}
			if got := testing.AllocsPerRun(50, scan); got > want.scan {
				t.Errorf("head scan: %.0f allocs/op, ceiling %.0f", got, want.scan)
			}
			if got := testing.AllocsPerRun(50, atCommit); got > want.atCommit {
				t.Errorf("point lookup at a commit: %.0f allocs/op, ceiling %.0f", got, want.atCommit)
			}
			if got := testing.AllocsPerRun(50, atNewest); got > want.atNewest {
				t.Errorf("point lookup at the branch's newest commit: %.0f allocs/op, ceiling %.0f", got, want.atNewest)
			}
			if got := testing.AllocsPerRun(50, heads); got > want.heads {
				t.Errorf("HEAD() scan: %.0f allocs/op, ceiling %.0f", got, want.heads)
			}
			if got := testing.AllocsPerRun(50, diff); got > want.diff {
				t.Errorf("diff: %.0f allocs/op, ceiling %.0f", got, want.diff)
			}
			if got := testing.AllocsPerRun(50, posDiff); got > want.posDiff {
				t.Errorf("positive diff: %.0f allocs/op, ceiling %.0f", got, want.posDiff)
			}
			if got := testing.AllocsPerRun(50, fold); got > want.fold {
				t.Errorf("fold: %.0f allocs/op, ceiling %.0f", got, want.fold)
			}
		})
	}
}

// TestScanLargerThanPoolAllocCeiling: a version-first head scan over a
// segment eight times the buffer pool — the shape of a benchmark
// workload whose data outgrows its pool — misses on every page, and a
// miss reuses the frame it evicts. A fold keeps no row, so its
// allocations are per scan, not per row or per page; one allocation
// per miss (a fresh frame buffer, a list element) fails the ceiling.
func TestScanLargerThanPoolAllocCeiling(t *testing.T) {
	const pageSize, poolPages, pages = 4096, 4, 32
	db, err := decibel.Open(t.TempDir(), decibel.WithEngine("version-first"),
		decibel.WithPageSize(pageSize), decibel.WithPoolPages(poolPages))
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
	rows := int64(pages * (pageSize / schema.RecordSize()))
	if _, err := db.Commit("master", func(tx *decibel.Tx) error {
		recs := make([]*decibel.Record, rows)
		for pk := range rows {
			recs[pk] = decibel.NewRecord(schema)
			recs[pk].SetPK(pk)
			recs[pk].Set(1, pk)
		}
		return tx.InsertBatch("r", recs)
	}); err != nil {
		t.Fatal(err)
	}
	want := float64(rows * (rows - 1) / 2)
	fold := func() {
		if sum, err := db.Query("r").On("master").Sum("v"); err != nil || sum != want {
			t.Fatalf("Sum: %v (%v), want %v", sum, err, want)
		}
	}
	fold()
	const ceiling = 26 // measured; the frame-per-miss pool made 126
	if got := testing.AllocsPerRun(20, fold); got > ceiling {
		t.Errorf("head fold over %d pages through %d frames: %.0f allocs/op, ceiling %d", pages, poolPages, got, ceiling)
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.PoolBytes > poolPages*pageSize {
		t.Fatalf("pool holds %d bytes, bound %d", st.PoolBytes, poolPages*pageSize)
	}
}

// versionJoinAllocCeilings is the allocations of a version join of
// 1,000 rows, by engine: measured + 1.
var versionJoinAllocCeilings = map[string]float64{"hybrid": 114, "tuple-first": 112, "version-first": 111}

// versionJoinGrowth bounds what eight times the rows may add to a
// version join's allocations: the doublings of the buffers it grows
// (two record slabs, the pair list, the staged rows and their key
// table, three doublings each), never an allocation per row — 7,000
// more rows at one each would add 7,000.
const versionJoinGrowth = 32

// TestVersionJoinAllocCeiling: a version join copies its output into
// slabs and windows one flat tuple array, so its allocations do not
// follow its row count. master holds n keys; dev rewrites every 16th,
// so the join matches those by key and the rest by shared copy.
func TestVersionJoinAllocCeiling(t *testing.T) {
	for engine, ceiling := range versionJoinAllocCeilings {
		t.Run(engine, func(t *testing.T) {
			allocs := func(n int64) float64 {
				db, err := decibel.Open(t.TempDir(), decibel.WithEngine(engine))
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
				put := func(branch string, step, dv int64) {
					t.Helper()
					if _, err := db.Commit(branch, func(tx *decibel.Tx) error {
						recs := make([]*decibel.Record, 0, n/step)
						for pk := int64(0); pk < n; pk += step {
							rec := decibel.NewRecord(schema)
							rec.SetPK(pk)
							rec.Set(1, pk+dv)
							recs = append(recs, rec)
						}
						return tx.InsertBatch("r", recs)
					}); err != nil {
						t.Fatal(err)
					}
				}
				put("master", 1, 0)
				if _, err := db.Branch("master", "dev"); err != nil {
					t.Fatal(err)
				}
				put("dev", 16, 1)
				join := func() {
					tuples, errf := db.Query("r").On("master").
						JoinOn(db.Query("r").On("dev"), decibel.On("id", "id")).Tuples()
					got := int64(0)
					for range tuples {
						got++
					}
					if err := errf(); err != nil || got != n {
						t.Fatalf("%d tuples (%v), want %d", got, err, n)
					}
				}
				return testing.AllocsPerRun(20, join)
			}
			small, large := allocs(1000), allocs(8000)
			if small > ceiling {
				t.Errorf("version join of 1,000 rows: %.0f allocs/op, ceiling %.0f", small, ceiling)
			}
			if large-small > versionJoinGrowth {
				t.Errorf("version join: %.0f allocs/op at 1,000 rows, %.0f at 8,000; growth bound %d", small, large, versionJoinGrowth)
			}
		})
	}
}

// groupFoldAllocCeilings is the allocations of a GroupBy of 1,000 rows,
// by engine: into 24 groups by an Int32 key, measured + 1, and into 145
// groups by a Bytes key, measured. A fold that kept a map entry keyed by
// an encoded string, a pointer, a key slice and an order entry per
// group, and built each emitted row apart, made 194–195 by the Int32
// key. By the Bytes key a fold that allocated its key table's string
// and a copy of the emitted value per group made 515–516; each new key
// is now copied once into a slab both point into, and what is left per
// group is boxing its emitted value.
var groupFoldAllocCeilings = map[string]struct{ cat, sku float64 }{
	"hybrid":        {cat: 65, sku: 234},
	"tuple-first":   {cat: 65, sku: 234},
	"version-first": {cat: 64, sku: 233},
}

// groupFoldGrowth bounds what eight times the rows, into the same
// groups, may add to a grouped fold's allocations. The fold's slabs
// double per group, so the same groups double them the same number of
// times at any row count, and the scan allocates per scan: nothing may
// be added — 7,000 more rows at one allocation each would add 7,000.
const groupFoldGrowth = 0

// TestGroupFoldAllocCeiling: a grouped fold's state is one entry per
// group in its key table and one window per group of its flat count and
// aggregate slabs, so its allocations follow its groups, not its rows.
// One key is an Int32 column, as the benchmark's GroupBy is; the other
// a Bytes column, whose groups also share one key slab.
func TestGroupFoldAllocCeiling(t *testing.T) {
	for engine, ceiling := range groupFoldAllocCeilings {
		t.Run(engine, func(t *testing.T) {
			allocs := func(n int64, key string, groups int) float64 {
				db, err := decibel.Open(t.TempDir(), decibel.WithEngine(engine))
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				schema := decibel.NewSchema().Int64("id").Int32("cat").Float64("amt").Int64("qty").Bytes("sku", 8).MustBuild()
				if _, err := db.CreateTable("r", schema); err != nil {
					t.Fatal(err)
				}
				if _, _, err := db.Init("init"); err != nil {
					t.Fatal(err)
				}
				if _, err := db.Commit("master", func(tx *decibel.Tx) error {
					recs := make([]*decibel.Record, n)
					for pk := range n {
						recs[pk] = decibel.NewRecord(schema)
						recs[pk].SetPK(pk)
						recs[pk].Set(1, pk%24)
						recs[pk].SetFloat64(2, float64(pk)/8)
						recs[pk].Set(3, pk%7)
						if err := recs[pk].SetBytes(4, []byte(fmt.Sprintf("sku-%03d", pk%145))); err != nil {
							return err
						}
					}
					return tx.InsertBatch("r", recs)
				}); err != nil {
					t.Fatal(err)
				}
				group := func() {
					rows, errf := db.Query("r").On("master").GroupBy(key).
						Groups(decibel.Count(), decibel.Sum("amt"), decibel.Avg("qty"))
					got, rowsIn := 0, 0.0
					for g := range rows {
						got++
						rowsIn += g.Aggs[0]
					}
					if err := errf(); err != nil || got != groups || rowsIn != float64(n) {
						t.Fatalf("%d groups of %v rows (%v), want %d of %d", got, rowsIn, err, groups, n)
					}
				}
				return testing.AllocsPerRun(20, group)
			}
			for _, c := range []struct {
				key     string
				groups  int
				ceiling float64
			}{{"cat", 24, ceiling.cat}, {"sku", 145, ceiling.sku}} {
				small, large := allocs(1000, c.key, c.groups), allocs(8000, c.key, c.groups)
				if small > c.ceiling {
					t.Errorf("GroupBy %s of 1,000 rows: %.0f allocs/op, ceiling %.0f", c.key, small, c.ceiling)
				}
				if large-small > groupFoldGrowth {
					t.Errorf("GroupBy %s: %.0f allocs/op at 1,000 rows, %.0f at 8,000; growth bound %d", c.key, small, large, groupFoldGrowth)
				}
			}
		})
	}
}

// TestOrderedTopKAllocCeiling: an OrderBy+Limit read over rows stored
// in the reverse of the order it asks for displaces the heap's root on
// nearly every row. The displacing row is copied into the evicted
// root's record, so the read's allocations do not grow with the rows
// it passes: a read over 4N rows makes as many as one over N, within
// one.
func TestOrderedTopKAllocCeiling(t *testing.T) {
	const n = 1000
	for _, engine := range []string{"hybrid", "tuple-first", "version-first"} {
		t.Run(engine, func(t *testing.T) {
			allocs := func(count int64) float64 {
				db, err := decibel.Open(t.TempDir(), decibel.WithEngine(engine))
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				schema := decibel.NewSchema().Int64("id").Int64("ts").MustBuild()
				if _, err := db.CreateTable("r", schema); err != nil {
					t.Fatal(err)
				}
				if _, _, err := db.Init("init"); err != nil {
					t.Fatal(err)
				}
				if _, err := db.Commit("master", func(tx *decibel.Tx) error {
					recs := make([]*decibel.Record, count)
					for pk := range count {
						recs[pk] = decibel.NewRecord(schema)
						recs[pk].SetPK(pk)
						recs[pk].Set(1, pk)
					}
					return tx.InsertBatch("r", recs)
				}); err != nil {
					t.Fatal(err)
				}
				q := db.Query("r").On("master").OrderBy("ts", true).Limit(10)
				return testing.AllocsPerRun(20, func() {
					rows, errf := q.Rows()
					want := count - 1
					for rec := range rows {
						if rec.Get(1) != want {
							t.Fatalf("ts %d, want %d", rec.Get(1), want)
						}
						want--
					}
					if err := errf(); err != nil {
						t.Fatal(err)
					}
				})
			}
			small, large := allocs(n), allocs(4*n)
			if large > small+1 {
				t.Errorf("top 10 of %d rows: %.0f allocs/op; of %d rows: %.0f", n, small, 4*n, large)
			}
		})
	}
}
