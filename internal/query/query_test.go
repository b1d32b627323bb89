package query

// The paper's four benchmark queries (Table 1) on every engine, through
// Plan/Compiled, over one small fixture whose answers are known by
// construction.

import (
	"context"
	"sort"
	"testing"

	"decibel/internal/bitmap"
	"decibel/internal/core"
	"decibel/internal/hy"
	"decibel/internal/record"
	"decibel/internal/vf"
	"decibel/internal/vgraph"
)

func schema() *record.Schema {
	return record.MustSchema(
		record.Column{Name: "id", Type: record.Int64},
		record.Column{Name: "v", Type: record.Int64},
	)
}

func rec(s *record.Schema, pk, v int64) *record.Record {
	r := record.New(s)
	r.SetPK(pk)
	r.Set(1, v)
	return r
}

// fixture builds: master with pks 1..10 (v = pk), committed; branch dev
// with pk 3 updated (v=33), pk 10 deleted, pk 11 added.
func fixture(t *testing.T, factory core.Factory) (*core.Database, *core.Table, *vgraph.Branch, *vgraph.Branch) {
	t.Helper()
	db, err := core.Open(t.TempDir(), factory, core.Options{PageSize: 4096, PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s := schema()
	if _, err := db.CreateTable("r", s); err != nil {
		t.Fatal(err)
	}
	master, _, err := db.Init("init")
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("r")
	for pk := int64(1); pk <= 10; pk++ {
		tbl.Insert(master.ID, rec(s, pk, pk))
	}
	db.Commit(master.ID, "base")
	dev, err := db.BranchFromHead(context.Background(), "dev", "master")
	if err != nil {
		t.Fatal(err)
	}
	tbl.Insert(dev.ID, rec(s, 3, 33))
	tbl.Delete(dev.ID, 10)
	tbl.Insert(dev.ID, rec(s, 11, 11))
	return db, tbl, master, dev
}

func factories() map[string]core.Factory {
	return map[string]core.Factory{
		"tuple-first":   hy.TupleFirstFactory,
		"version-first": vf.Factory,
		"hybrid":        hy.Factory,
	}
}

// compile compiles a head plan over the fixture table.
func compile(t *testing.T, db *core.Database, where Expr, branches ...string) *Compiled {
	t.Helper()
	c, err := Plan{Table: "r", Branches: branches, AtSeq: -1, Where: where}.Compile(db)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestQ1SingleVersionScan(t *testing.T) {
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) {
			db, _, _, _ := fixture(t, f)
			count := func(branch string, where Expr) int {
				n, err := compile(t, db, where, branch).Aggregate(context.Background(), AggCount, "")
				if err != nil {
					t.Fatal(err)
				}
				return int(n)
			}
			if n := count("master", Expr{}); n != 10 {
				t.Fatalf("master count = %d", n)
			}
			if n := count("dev", Expr{}); n != 10 { // 10 - deleted + added
				t.Fatalf("dev count = %d", n)
			}
			if n := count("dev", Col("v").Eq(33)); n != 1 {
				t.Fatalf("pred count = %d", n)
			}
			if n := count("master", Col("v").Lt(6)); n != 5 {
				t.Fatalf("less count = %d", n)
			}
			s, err := compile(t, db, Expr{}, "master").Aggregate(context.Background(), AggSum, "v")
			if err != nil || s != 55 {
				t.Fatalf("sum = %v (%v)", s, err)
			}
		})
	}
}

func TestQ2PositiveDiff(t *testing.T) {
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) {
			db, _, _, _ := fixture(t, f)
			diff := func(a, b string) []int64 {
				var pks []int64
				c, err := Plan{Table: "r", Branches: []string{a, b}, AtSeq: -1, Diff: true}.Compile(db)
				if err != nil {
					t.Fatal(err)
				}
				err = c.Diff(context.Background(), func(r *record.Record) bool {
					pks = append(pks, r.PK())
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				sort.Slice(pks, func(i, j int) bool { return pks[i] < pks[j] })
				return pks
			}
			// dev-not-master: updated 3 (new copy), added 11.
			if pks := diff("dev", "master"); len(pks) != 2 || pks[0] != 3 || pks[1] != 11 {
				t.Fatalf("dev-not-master = %v", pks)
			}
			// master-not-dev: old copy of 3, deleted 10.
			if pks := diff("master", "dev"); len(pks) != 2 || pks[0] != 3 || pks[1] != 10 {
				t.Fatalf("master-not-dev = %v", pks)
			}
		})
	}
}

func TestQ3VersionJoin(t *testing.T) {
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) {
			db, _, _, _ := fixture(t, f)
			// master ⋈ dev on the primary key, the predicate on the left.
			join := func(where Expr) int {
				c, err := Plan{Table: "r", Branches: []string{"master"}, AtSeq: -1, Where: where,
					Joins: []JoinLeg{{
						Plan:    Plan{Table: "r", Branches: []string{"dev"}, AtSeq: -1},
						LeftCol: "id", RightCol: "id",
					}}}.Compile(db)
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				err = c.JoinTuples(context.Background(), func(p JoinTuple) bool {
					if p[0].PK() != p[1].PK() {
						t.Fatalf("join key mismatch: %d vs %d", p[0].PK(), p[1].PK())
					}
					if p[0].PK() == 3 && (p[0].Get(1) != 3 || p[1].Get(1) != 33) {
						t.Fatalf("versions swapped: %v %v", p[0], p[1])
					}
					n++
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
			// All shared keys: 1..9 (10 deleted in dev, 11 absent in master).
			if n := join(Expr{}); n != 9 {
				t.Fatalf("join rows = %d, want 9", n)
			}
			if n := join(Col("v").Eq(5)); n != 1 {
				t.Fatalf("selective join rows = %d", n)
			}
		})
	}
}

func TestQ4HeadScan(t *testing.T) {
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) {
			db, _, _, _ := fixture(t, f)
			c, err := Plan{Table: "r", AllHeads: true, AtSeq: -1}.Compile(db)
			if err != nil {
				t.Fatal(err)
			}
			perBranch := map[string]int{}
			rows := 0
			err = c.ScanMulti(context.Background(), func(_ *record.Record, member *bitmap.Bitmap) bool {
				rows++
				if !member.Any() {
					t.Fatal("record with no active branches")
				}
				member.ForEach(func(i int) bool {
					perBranch[c.Branches()[i].Name]++
					return true
				})
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if perBranch["master"] != 10 || perBranch["dev"] != 10 {
				t.Fatalf("per-branch counts = %v", perBranch)
			}
			// Shared records are emitted once with multiple branches, so the
			// number of distinct rows is below the sum of branch counts.
			if rows >= 20 {
				t.Fatalf("rows = %d, expected sharing", rows)
			}
		})
	}
}
