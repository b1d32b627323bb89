package decibel_test

// Scan cancellation: canceling the context of a scan must surface
// context.Canceled, stop emission within one record, leave no goroutine
// behind, and leave the database readable for the next scan. The
// package-wide goroutine-leak gate lives in TestMain (bench_test.go).

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"decibel"
)

// settledGoroutines polls until the live goroutine count drops to at
// most want, returning the last observed count. Background runtime
// goroutines start lazily, so an exact match is not expected — callers
// pass a small tolerance.
func settledGoroutines(want int, wait time.Duration) int {
	deadline := time.Now().Add(wait)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func TestScanCancellation(t *testing.T) {
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			before := runtime.NumGoroutine()
			db := buildPruningDB(t, engine)

			// A context canceled before the scan starts fails immediately
			// with Canceled and emits nothing.
			pre, preCancel := context.WithCancel(context.Background())
			preCancel()
			seq, errFn := db.Query("r").On("master").RowsContext(pre)
			emitted := 0
			seq(func(*decibel.Record) bool { emitted++; return true })
			if err := errFn(); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-canceled scan: err=%v, want context.Canceled", err)
			}
			if emitted != 0 {
				t.Fatalf("pre-canceled scan emitted %d rows", emitted)
			}
			if _, err := db.Query("r").On("master").CountContext(pre); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-canceled aggregate did not fail with Canceled")
			}
			groups, groupsErr := db.Query("r").On("master").GroupBy("v").GroupsContext(pre, decibel.Count())
			for g := range groups {
				t.Fatalf("pre-canceled grouped fold emitted group %v", g.Key)
			}
			if err := groupsErr(); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-canceled grouped fold: err=%v, want context.Canceled", err)
			}

			// Canceling mid-iteration: the stream must stop within one
			// record of the cancel and the error accessor must report it.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			seq, errFn = db.Query("r").On("master").RowsContext(ctx)
			after := 0
			seq(func(*decibel.Record) bool {
				if after == 0 {
					cancel()
				}
				after++
				return true
			})
			if err := errFn(); !errors.Is(err, context.Canceled) {
				t.Fatalf("mid-scan cancel: err=%v, want context.Canceled", err)
			}
			if after > 2 {
				t.Fatalf("scan emitted %d rows after cancellation; want <= 2", after)
			}

			// Cancel racing the scan itself: fire scans while a sibling
			// goroutine cancels at a random point. Whatever the
			// timing, the only acceptable outcomes are a complete result
			// or context.Canceled.
			want, err := db.Query("r").On("master").Count()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				rctx, rcancel := context.WithCancel(context.Background())
				done := make(chan struct{})
				go func() {
					defer close(done)
					time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
					rcancel()
				}()
				n, err := db.Query("r").On("master").CountContext(rctx)
				<-done
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("racing cancel %d: unexpected error %v", i, err)
				}
				if err == nil && n != want {
					t.Fatalf("racing cancel %d: complete count %d, want %d", i, n, want)
				}
			}

			// The database must be fully readable after all of the above.
			n, err := db.Query("r").On("master").Count()
			if err != nil || n != want {
				t.Fatalf("post-cancel scan: n=%d err=%v, want %d", n, err, want)
			}

			// No goroutine may outlive its scan: the count settles back to
			// where the test started (small tolerance for lazy runtime
			// goroutines).
			if got := settledGoroutines(before+3, 5*time.Second); got > before+3 {
				t.Fatalf("goroutines leaked: %d before, %d after settling", before, got)
			}
		})
	}
}

// TestScanDeadline covers the other cancellation source: a deadline
// expiring mid-scan surfaces context.DeadlineExceeded.
func TestScanDeadline(t *testing.T) {
	db := buildPruningDB(t, "hybrid")
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // ensure expiry
	_, err := db.Query("r").On("master").CountContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err=%v, want DeadlineExceeded", err)
	}
	if _, err := db.Query("r").On("master").Count(); err != nil {
		t.Fatalf("database unreadable after deadline: %v", err)
	}
}
