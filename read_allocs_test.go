package decibel_test

// Allocation ceilings for the read paths the benchmark gates at a 1%
// bound (allocs_per_read_op): a head point lookup — of a key whose
// newest version the branch holds, and of one another branch has since
// rewritten, so the index walk passes versions the branch cannot see —
// a point lookup pinned to a commit the key was rewritten after (the
// served read's shape), a sequential Q1-shaped head scan, and a warm
// HEAD() scan of every branch, a warm symmetric diff of two, and a
// scalar fold (Sum) over the head, whose rows the fold does not keep. The
// dataset is the pruning dataset — several segments across two schema
// epochs — so the per-unit costs (layout conversion, zone checks) are
// part of the count. The tuple-first and hybrid head ceilings are the
// counts measured before the read paths were folded into one driver,
// the rest the counts measured when each path was added; one more
// closure, sink or slice per read fails here before it fails the
// benchmark gate; for the HEAD(), diff and fold shapes, so does one per
// row.

import (
	"testing"

	"decibel"
)

// readAllocCeilings is allocations per read, by engine.
var readAllocCeilings = map[string]struct{ point, walk, scan, atCommit, heads, diff, fold float64 }{
	"hybrid":        {point: 24, walk: 24, scan: 176, atCommit: 29, heads: 235, diff: 63, fold: 41},
	"tuple-first":   {point: 24, walk: 24, scan: 167, atCommit: 29, heads: 207, diff: 46, fold: 35},
	"version-first": {point: 24, walk: 24, scan: 165, atCommit: 21, heads: 223, diff: 58, fold: 35},
}

func TestReadAllocCeilings(t *testing.T) {
	for engine, want := range readAllocCeilings {
		t.Run(engine, func(t *testing.T) {
			db := buildPruningDB(t, engine, decibel.WithScanWorkers(1))
			// b2 rewrites key 61 three times; master keeps the older copy.
			// pinned is b2's first rewrite: a read at it passes over the two
			// later ones.
			var pinned *decibel.Commit
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
			if got := testing.AllocsPerRun(50, heads); got > want.heads {
				t.Errorf("HEAD() scan: %.0f allocs/op, ceiling %.0f", got, want.heads)
			}
			if got := testing.AllocsPerRun(50, diff); got > want.diff {
				t.Errorf("diff: %.0f allocs/op, ceiling %.0f", got, want.diff)
			}
			if got := testing.AllocsPerRun(50, fold); got > want.fold {
				t.Errorf("fold: %.0f allocs/op, ceiling %.0f", got, want.fold)
			}
		})
	}
}
