package decibel_test

// Concurrent-serving stress: 32+ clients of mixed read/commit traffic
// against one served database, run under -race by CI's concurrency
// job. Every commit rewrites the whole key set with one generation
// number, so snapshot isolation is directly observable: any read that
// ever returns two generations in one response saw a torn snapshot.
// Readers also check the pinned commit seq never runs backwards and
// that re-reading a captured commit ID returns its original
// generation, while canceler clients abort requests mid-flight to
// prove disconnects are not server errors.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decibel"
	"decibel/client"
)

func TestConcurrentServing(t *testing.T) {
	runConcurrentServing(t, false)
}

// TestConcurrentServingAutoCompaction is the same stress run with a
// compaction pass every 5 ms until the writers finish: page compression
// retires segment files while the 32 clients read and write, so
// snapshot isolation and the reader-pinning retire protocol are
// asserted against concurrent compaction (CI runs this under -race).
func TestConcurrentServingAutoCompaction(t *testing.T) {
	runConcurrentServing(t, true)
}

// compactEvery runs db.Compact every interval on a goroutine of its own
// until the returned stop, which waits for the running pass, is called.
// A pass error fails the test.
func compactEvery(t *testing.T, db *decibel.DB, interval time.Duration) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if _, err := db.Compact(); err != nil {
					t.Errorf("compaction pass: %v", err)
					return
				}
			}
		}
	}()
	return func() { close(quit); <-done }
}

// runConcurrentServing runs the stress against a hybrid database;
// compacting turns compaction on and runs a pass every 5 ms until the
// writers finish.
func runConcurrentServing(t *testing.T, compacting bool) {
	const (
		keys       = 48
		writers    = 8
		readers    = 22
		cancelers  = 2 // writers+readers+cancelers = 32 concurrent clients
		commitsPer = 12
	)
	opts := []decibel.Option{decibel.WithEngine("hybrid")}
	if compacting {
		opts = append(opts, decibel.WithCompaction("manual"))
	}
	db, err := decibel.Open(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	schema := decibel.NewSchema().Int64("id").Int64("gen").MustBuild()
	if _, err := db.CreateTable("r", schema); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Init("init"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(decibel.NewServer(db).Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	genOps := func(gen int64) []client.Op {
		ops := make([]client.Op, keys)
		for k := range ops {
			ops[k] = client.Op{Op: "insert", Table: "r", Values: map[string]any{"id": k, "gen": gen}}
		}
		return ops
	}
	// Seed generation 0 so every snapshot has the full key set.
	if _, err := c.Commit(ctx, client.CommitRequest{Branch: "master", Ops: genOps(0)}); err != nil {
		t.Fatal(err)
	}

	stopCompact := func() {}
	if compacting {
		stopCompact = compactEvery(t, db, 5*time.Millisecond)
	}
	errsBefore := expvarInt(t, "decibel.server.errors")
	var (
		genCtr      atomic.Int64
		writersLeft atomic.Int64
		reads       atomic.Int64
		wg          sync.WaitGroup
		mu          sync.Mutex
		failures    []string
		failf       = func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			failures = append(failures, fmt.Sprintf(format, args...))
		}
	)
	writersLeft.Store(writers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer writersLeft.Add(-1)
			for i := 0; i < commitsPer; i++ {
				gen := genCtr.Add(1)
				if _, err := c.Commit(ctx, client.CommitRequest{Branch: "master", Ops: genOps(gen)}); err != nil {
					failf("commit gen %d: %v", gen, err)
					return
				}
			}
		}()
	}

	// rowGen extracts the one generation a snapshot read must contain.
	rowGen := func(resp *client.QueryResponse) (int64, bool) {
		if len(resp.Rows) != keys {
			return 0, false
		}
		gen, first := int64(-1), true
		for _, row := range resp.Rows {
			n, ok := row["gen"].(json.Number)
			if !ok {
				return 0, false
			}
			g, err := n.Int64()
			if err != nil {
				return 0, false
			}
			if first {
				gen, first = g, false
			} else if g != gen {
				return 0, false
			}
		}
		return gen, true
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				lastSeq   = -1
				pinCommit uint64
				pinGen    int64
			)
			for writersLeft.Load() > 0 {
				resp, err := c.Query(ctx, client.QueryRequest{Table: "r", Branches: []string{"master"}})
				if err != nil {
					failf("read: %v", err)
					return
				}
				gen, ok := rowGen(resp)
				if !ok {
					failf("torn snapshot: %d rows, mixed generations (%v...)", len(resp.Rows), resp.Rows[:min(3, len(resp.Rows))])
					return
				}
				if resp.Commit == 0 {
					failf("head read came back unpinned")
					return
				}
				if resp.Seq < lastSeq {
					failf("commit seq ran backwards: %d after %d", resp.Seq, lastSeq)
					return
				}
				lastSeq = resp.Seq
				if pinCommit == 0 {
					pinCommit, pinGen = resp.Commit, gen
				} else {
					// A captured snapshot re-reads identically forever.
					pr, err := c.Query(ctx, client.QueryRequest{Table: "r", Branches: []string{"master"}, AtCommit: pinCommit})
					if err != nil {
						failf("pinned re-read: %v", err)
						return
					}
					if g, ok := rowGen(pr); !ok || g != pinGen {
						failf("pinned commit %d re-read gen %d (ok=%v), want %d", pinCommit, g, ok, pinGen)
						return
					}
				}
				reads.Add(1)
			}
		}()
	}

	for i := 0; i < cancelers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for writersLeft.Load() > 0 {
				cctx, cancel := context.WithTimeout(ctx, time.Millisecond)
				_, _ = c.Query(cctx, client.QueryRequest{Table: "r", Branches: []string{"master"}})
				cancel()
			}
		}()
	}

	wg.Wait()
	stopCompact()
	if len(failures) > 0 {
		t.Fatalf("%d failures, first: %s", len(failures), failures[0])
	}
	if got := reads.Load(); got == 0 {
		t.Fatal("readers never completed a read while commits landed")
	}
	if errsAfter := expvarInt(t, "decibel.server.errors"); errsAfter != errsBefore {
		t.Fatalf("server error counter moved by %d during the stress run", errsAfter-errsBefore)
	}

	// The final head reflects the last serialized commit: all keys on
	// one generation, total commits == writers*commitsPer + seed.
	resp, err := c.Query(ctx, client.QueryRequest{Table: "r", Branches: []string{"master"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rowGen(resp); !ok {
		t.Fatalf("final head is torn: %v", resp.Rows)
	}
	if !c.Healthy(ctx) {
		t.Fatal("server unhealthy after the stress run")
	}
}
