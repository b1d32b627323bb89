package vf

import (
	"testing"

	"decibel/internal/core"
	"decibel/internal/record"
	"decibel/internal/vgraph"
)

// cachedPlan returns the plan cached at p without touching the LRU
// order, nil when there is none.
func cachedPlan(e *Engine, p pos) *planEntry {
	if el, ok := e.pcache.entries[p]; ok {
		return el.Value.(*lruEntry[pos, *planEntry]).val
	}
	return nil
}

// only is the engine lookup that opens every dataset with this
// package's engine: a test opens only datasets it wrote.
func only(string) (core.Factory, error) { return Factory, nil }

// TestHeadsComposeCachedPlans checks that a multi-branch scan is a
// composition of per-position plans: after a commit on one of k
// branches, the next HEAD() resolves exactly one new position and
// reuses the other k-1 cached plans as they are.
func TestHeadsComposeCachedPlans(t *testing.T) {
	const k = 4
	db, err := core.Open(t.TempDir(), "", only, core.Options{PageSize: 4096, PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	schema := record.MustSchema(
		record.Column{Name: "id", Type: record.Int64},
		record.Column{Name: "v", Type: record.Int64},
	)
	tbl, err := db.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	master, _, err := db.Init("init")
	if err != nil {
		t.Fatal(err)
	}
	put := func(b vgraph.BranchID, pk, v int64) *vgraph.Commit {
		t.Helper()
		rec := record.New(schema)
		rec.SetPK(pk)
		rec.Set(1, v)
		if err := tbl.Insert(b, rec); err != nil {
			t.Fatal(err)
		}
		c, err := db.Commit(b, "c")
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	var base *vgraph.Commit
	for pk := int64(0); pk < 40; pk++ {
		base = put(master.ID, pk, pk)
	}
	ids := []vgraph.BranchID{master.ID}
	for i := 1; i < k; i++ {
		b, err := db.Branch(string(rune('a'+i)), base.ID)
		if err != nil {
			t.Fatal(err)
		}
		put(b.ID, int64(i), 100+int64(i))
		ids = append(ids, b.ID)
	}

	e := tbl.Engine().(*Engine)
	heads := func() []*planEntry {
		t.Helper()
		units, release, err := core.Partition(e, core.ScanRequest{Kind: core.ScanKindMulti, Branches: ids})
		if err != nil {
			t.Fatal(err)
		}
		release()
		if len(units) == 0 {
			t.Fatal("HEAD() partitioned into no units")
		}
		plans := make([]*planEntry, k)
		for i, b := range ids {
			e.mu.Lock()
			p, err := e.versionPosLocked(core.Version{Branch: b})
			e.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			if plans[i] = cachedPlan(e, p); plans[i] == nil {
				t.Fatalf("branch %d: no plan cached at its head %v", b, p)
			}
		}
		return plans
	}

	before := heads()
	put(ids[2], 7, 700)
	missesBefore := vfCacheMisses.Value()
	cachedBefore := len(e.pcache.entries)
	after := heads()
	missesAfter := vfCacheMisses.Value()
	for i := range ids {
		if same := after[i] == before[i]; same != (i != 2) {
			t.Errorf("branch %d: plan reused = %v, want %v", ids[i], same, i != 2)
		}
	}
	if n := missesAfter - missesBefore; n != 1 {
		t.Errorf("HEAD() after one commit resolved %d positions, want 1", n)
	}
	if n := len(e.pcache.entries) - cachedBefore; n != 1 {
		t.Errorf("HEAD() after one commit cached %d new plans, want 1", n)
	}
}
