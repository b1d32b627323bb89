package decibel_test

// Lineage-cache equivalence: the version-first engine's cached
// resolution tiers (exact-position live maps, incremental delta
// resolution, per-position scan plans) are pure
// optimizations — a cached engine must emit byte-identical streams to
// an engine with the cache forced off (WithoutLineageCache, the full
// lineage-walk baseline), for every query shape and predicate. The test also asserts the cache actually engaged
// (the hits counter moved), so a silently bypassed cache cannot pass.

import (
	"fmt"
	"math/rand"
	"testing"

	"decibel"
	iquery "decibel/internal/query"
	"decibel/internal/vf"
)

func TestVFCacheEquivalence(t *testing.T) {
	cached := buildPruningDB(t, "vf")
	uncached := buildPruningDB(t, "vf", decibel.WithoutLineageCache())
	hitsBefore, _, _, _ := vf.CacheCounters()

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
	_, _, _, deltasBefore := vf.CacheCounters()
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
	if _, _, _, deltasAfter := vf.CacheCounters(); deltasAfter == deltasBefore {
		t.Fatalf("delta resolves did not move (%d): the overlay window was never applied", deltasBefore)
	}

	if hitsAfter, _, _, _ := vf.CacheCounters(); hitsAfter == hitsBefore {
		t.Fatalf("lineage cache hits did not move (%d): the cache is not engaging", hitsBefore)
	}
}
