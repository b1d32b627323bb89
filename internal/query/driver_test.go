package query

// The scan driver partitions a scan exactly once: a scan reaches the
// engine's partitioner once, not once to look and once more to run.

import (
	"context"
	"sync/atomic"
	"testing"

	"decibel/internal/core"
	"decibel/internal/hy"
	"decibel/internal/record"
)

// countingEngine counts the Live calls of the engine it wraps.
type countingEngine struct {
	core.Engine
	partitions *atomic.Int64
}

func (e countingEngine) Live(vs []core.Version, fn func([]core.SlotSpace) error) error {
	e.partitions.Add(1)
	return e.Engine.Live(vs, fn)
}

func TestScanPartitionsOnce(t *testing.T) {
	var partitions atomic.Int64
	factory := func(env *core.Env) (core.Engine, error) {
		eng, err := hy.Factory(env)
		return countingEngine{eng, &partitions}, err
	}
	db, err := core.Open(t.TempDir(), "", only(factory), core.Options{PageSize: 4096, PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := schema()
	tbl, err := db.CreateTable("r", s)
	if err != nil {
		t.Fatal(err)
	}
	master, _, err := db.Init("init")
	if err != nil {
		t.Fatal(err)
	}
	for pk := int64(1); pk <= 50; pk++ {
		if err := tbl.Insert(master.ID, rec(s, pk, pk)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Commit(master.ID, "load"); err != nil {
		t.Fatal(err)
	}

	c := compile(t, db, Col("v").Gt(10), "master")
	partitions.Store(0)
	n := 0
	if err := c.Scan(context.Background(), func(*record.Record) bool { n++; return true }); err != nil || n != 40 {
		t.Fatalf("%d rows (%v), want 40", n, err)
	}
	if got := partitions.Load(); got != 1 {
		t.Fatalf("a scan partitioned %d times, want 1", got)
	}
}
