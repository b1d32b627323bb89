package decibel_test

// Lineage-cache equivalence: the version-first engine's plan cache —
// per-position scan plans, each a hit, derived from a base plan (a
// cached cut of the same segment, a plain branch point's parent, or a
// merge's LCA) or built by a full walk, plus the lineage memos — is a
// pure optimization. A cached engine must emit byte-identical streams
// to an engine with the cache forced off (WithoutLineageCache, the full
// lineage-walk baseline), for every query shape and predicate, across
// commits, merges and a branch of a branch. The test also asserts the
// cache engaged (the hits and delta-resolve counters moved), so a
// silently bypassed cache cannot pass.

import (
	"fmt"
	"math/rand"
	"testing"

	"decibel"
	iquery "decibel/internal/query"
)

func TestVFCacheEquivalence(t *testing.T) {
	cached := buildPruningDB(t, "vf")
	uncached := buildPruningDB(t, "vf", decibel.WithoutLineageCache())
	hitsBefore := expvarInt(t, "decibel.vf.lineage_cache_hits")

	type shaped struct {
		plan  iquery.Plan
		shape string
	}
	shapes := func(where iquery.Expr) []shaped {
		mkPlan := func(branches []string, atSeq int) iquery.Plan {
			return iquery.Plan{Table: "r", Branches: branches, AtSeq: atSeq, Where: where}
		}
		return []shaped{
			{mkPlan([]string{"master"}, -1), "scan"},
			{mkPlan([]string{"b1"}, -1), "scan"},
			{mkPlan([]string{"b2"}, -1), "scan"},
			{mkPlan([]string{"master"}, 0), "scan"}, // historical commit read
			{mkPlan([]string{"master", "b1"}, -1), "multi"},
			{mkPlan([]string{"master", "b2", "b1"}, -1), "multi"},
			{mkPlan([]string{"master", "b1"}, -1), "diff"},
			{mkPlan([]string{"b2", "master"}, -1), "diff"},
			{mkPlan([]string{"master", "b1"}, -1), "diff-postfilter"},
		}
	}
	check := func(t *testing.T, plan iquery.Plan, shape, label string) {
		t.Helper()
		got, gotErr := runShape(cached, plan, shape)
		want, wantErr := runShape(uncached, plan, shape)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: cached err=%v uncached err=%v", label, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s: error mismatch: %v vs %v", label, gotErr, wantErr)
			}
			return
		}
		if len(got) != len(want) {
			t.Fatalf("%s: cached %d rows, uncached %d rows", label, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: row %d: cached %q uncached %q", label, i, got[i], want[i])
			}
		}
	}

	fixed := []iquery.Expr{
		iquery.Col("v").Ge(0), // match-all: full live sets compared
		iquery.Col("price").Lt(7.5),
		iquery.Col("sku").HasPrefix("c"),
		iquery.Col("v").Ge(120).And(iquery.Col("sku").HasPrefix("b")),
	}
	rng := rand.New(rand.NewSource(0xcac4ed))
	for i, where := range fixed {
		for j, sh := range shapes(where) {
			check(t, sh.plan, sh.shape, fmt.Sprintf("fixed[%d] shape[%d]", i, j))
		}
	}
	for i := 0; i < 40; i++ {
		where := randExpr(rng, 2)
		for j, sh := range shapes(where) {
			check(t, sh.plan, sh.shape, fmt.Sprintf("rand[%d] shape[%d]", i, j))
		}
	}

	// Writes between reads: the cache must track new commits (fresh
	// cuts resolve incrementally from cached bases) without going
	// stale. Mutate both databases identically and re-compare.
	for round := 0; round < 3; round++ {
		for _, db := range []*decibel.DB{cached, uncached} {
			if _, err := db.Commit("master", func(tx *decibel.Tx) error {
				schema, err := db.TableByName("r")
				if err != nil {
					return err
				}
				for pk := int64(200 + round*10); pk < int64(205+round*10); pk++ {
					rec := decibel.NewRecord(schema.Schema())
					rec.SetPK(pk)
					rec.Set(1, pk*3)
					if err := rec.SetBytes(2, []byte(fmt.Sprintf("z%03d", pk))); err != nil {
						return err
					}
					if err := tx.Insert("r", rec); err != nil {
						return err
					}
				}
				return tx.Delete("r", int64(20+round))
			}); err != nil {
				t.Fatal(err)
			}
		}
		for j, sh := range shapes(iquery.Col("v").Ge(0)) {
			check(t, sh.plan, sh.shape, fmt.Sprintf("post-write[%d] shape[%d]", round, j))
		}
	}

	// One commit window holding every case the incremental overlay of a
	// cached base must get right: a key updated twice (the later copy
	// wins), a key deleted and re-inserted (the re-insert wins), and a key
	// the base holds deleted (the tombstone wins over the base). The
	// head reads above cached master's previous cut, so the first read
	// below resolves incrementally from it.
	deltasBefore := expvarInt(t, "decibel.vf.delta_resolves")
	for _, db := range []*decibel.DB{cached, uncached} {
		if _, err := db.Commit("master", func(tx *decibel.Tx) error {
			tbl, err := db.TableByName("r")
			if err != nil {
				return err
			}
			upsert := func(pk, v int64) error {
				rec := decibel.NewRecord(tbl.Schema())
				rec.SetPK(pk)
				rec.Set(1, v)
				return tx.Insert("r", rec)
			}
			for _, op := range []func() error{
				func() error { return upsert(30, 1030) },
				func() error { return upsert(30, 2030) },
				func() error { return tx.Delete("r", 40) },
				func() error { return upsert(40, 1040) },
				func() error { return tx.Delete("r", 41) },
			} {
				if err := op(); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for j, sh := range shapes(iquery.Col("v").Ge(0)) {
		check(t, sh.plan, sh.shape, fmt.Sprintf("overlay shape[%d]", j))
	}
	if deltasAfter := expvarInt(t, "decibel.vf.delta_resolves"); deltasAfter == deltasBefore {
		t.Fatalf("delta resolves did not move (%d): the overlay window was never applied", deltasBefore)
	}

	// write commits the same transaction on both databases: upserts of
	// keys (v = pk + bump) and deletes.
	write := func(branch string, bump int64, upserts []int64, deletes ...int64) {
		t.Helper()
		for _, db := range []*decibel.DB{cached, uncached} {
			tbl, err := db.TableByName("r")
			if err != nil {
				t.Fatal(err)
			}
			b, err := db.BranchNamed(branch)
			if err != nil {
				t.Fatal(err)
			}
			s := tbl.SchemaAt(tbl.BranchEpoch(b.ID)) // b1 and b3 stay at epoch 0
			if _, err := db.Commit(branch, func(tx *decibel.Tx) error {
				for _, pk := range upserts {
					rec := decibel.NewRecord(s)
					rec.SetPK(pk)
					rec.Set(1, pk+bump)
					if err := rec.SetBytes(2, []byte(fmt.Sprintf("m%03d", pk))); err != nil {
						return err
					}
					if err := tx.Insert("r", rec); err != nil {
						return err
					}
				}
				for _, pk := range deletes {
					if err := tx.Delete("r", pk); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	merge := func(into, from string, opts ...decibel.MergeOption) {
		t.Helper()
		for _, db := range []*decibel.DB{cached, uncached} {
			if _, _, err := db.Merge(into, from, opts...); err != nil {
				t.Fatal(err)
			}
		}
	}

	// A merge round: b1 and master both changed keys since b1 forked
	// (master deleted 10-14 and rewrote 30), so merged heads resolve
	// through their LCA's plan with conflicts and override tables in
	// play, in both directions and with both precedences.
	write("b1", 1000, []int64{10, 11, 30, 31, 300, 301}, 5, 41)
	merge("master", "b1", decibel.WithMergeKind(decibel.TwoWay), decibel.WithMergePrecedence(false))
	write("b2", 2000, []int64{12, 30, 120, 302}, 101)
	merge("b2", "master")
	write("master", 3000, []int64{31, 303}, 11)
	for j, sh := range shapes(iquery.Col("v").Ge(0)) {
		check(t, sh.plan, sh.shape, fmt.Sprintf("merge shape[%d]", j))
	}

	// A branch-of-branch round: b3 forks b1, a branch itself, and
	// rewrites keys b1 and master also changed; its head resolves through
	// b1's plan at the branch point.
	for _, db := range []*decibel.DB{cached, uncached} {
		if _, err := db.Branch("b1", "b3"); err != nil {
			t.Fatal(err)
		}
	}
	write("b3", 4000, []int64{10, 31, 304}, 300, 20)
	write("b1", 5000, []int64{31, 305})
	for i, where := range fixed {
		for j, sh := range append(shapes(where),
			shaped{iquery.Plan{Table: "r", Branches: []string{"b3"}, AtSeq: -1, Where: where}, "scan"},
			shaped{iquery.Plan{Table: "r", Branches: []string{"b3", "b1", "master"}, AtSeq: -1, Where: where}, "multi"},
			shaped{iquery.Plan{Table: "r", Branches: []string{"b3", "b1"}, AtSeq: -1, Where: where}, "diff"},
			shaped{iquery.Plan{Table: "r", Branches: []string{"b1", "b3"}, AtSeq: -1, Where: where}, "diff"},
		) {
			check(t, sh.plan, sh.shape, fmt.Sprintf("branch-of-branch fixed[%d] shape[%d]", i, j))
		}
	}

	if hitsAfter := expvarInt(t, "decibel.vf.lineage_cache_hits"); hitsAfter == hitsBefore {
		t.Fatalf("lineage cache hits did not move (%d): the cache is not engaging", hitsBefore)
	}
}
