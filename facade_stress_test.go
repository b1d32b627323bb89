package decibel_test

// Concurrent-session stress over the facade: parallel name-based
// commits on diverging branches, plus writers racing on one shared
// branch and readers scanning throughout. Run with -race; the test
// asserts every branch ends with exactly the records its writers
// committed and that same-branch committers serialized.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decibel"
	iquery "decibel/internal/query"
	"decibel/internal/record"
)

func TestConcurrentNameBasedCommits(t *testing.T) {
	const (
		branches        = 4
		commitsPer      = 5
		recordsPerRound = 20
	)
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			db, err := decibel.Open(t.TempDir(), decibel.WithEngine(engine))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			schema := decibel.NewSchema().Int64("id").Int64("writer").Int64("round").MustBuild()
			if _, err := db.CreateTable("r", schema); err != nil {
				t.Fatal(err)
			}
			if _, _, err := db.Init("init"); err != nil {
				t.Fatal(err)
			}

			// Diverging branches, one writer each, all committing in
			// parallel through the name-based API.
			names := make([]string, branches)
			for i := range names {
				names[i] = fmt.Sprintf("worker-%d", i)
				if _, err := db.Branch("master", names[i]); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			errs := make(chan error, branches*commitsPer)
			for w, name := range names {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for round := 0; round < commitsPer; round++ {
						_, err := db.Commit(name, func(tx *decibel.Tx) error {
							tx.SetMessage(fmt.Sprintf("%s round %d", name, round))
							for i := 0; i < recordsPerRound; i++ {
								rec := decibel.NewRecord(schema)
								rec.SetPK(int64(round*recordsPerRound + i))
								rec.Set(1, int64(w))
								rec.Set(2, int64(round))
								if err := tx.Insert("r", rec); err != nil {
									return err
								}
							}
							return nil
						})
						if err != nil {
							errs <- fmt.Errorf("%s round %d: %w", name, round, err)
							return
						}
					}
				}()
			}
			// Concurrent readers: iterate master and the workers' heads
			// while the writers commit.
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						for _, b := range append([]string{"master"}, names...) {
							rows, scanErr := db.Rows("r", b)
							for range rows {
							}
							if err := scanErr(); err != nil {
								errs <- fmt.Errorf("reader on %s: %w", b, err)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			// Every branch holds exactly its writer's records.
			for w, name := range names {
				n := 0
				rows, scanErr := db.Rows("r", name)
				for rec := range rows {
					if got := rec.Get(1); got != int64(w) {
						t.Fatalf("%s holds a record from writer %d", name, got)
					}
					n++
				}
				if err := scanErr(); err != nil {
					t.Fatal(err)
				}
				if n != commitsPer*recordsPerRound {
					t.Fatalf("%s has %d records, want %d", name, n, commitsPer*recordsPerRound)
				}
			}
		})
	}
}

// TestConcurrentScans: scans racing committing writers, branch
// creation and a schema-epoch rotation, on every engine. Writers commit
// whole batches to their own branches, so any reader snapshot must
// contain only that branch's writer and a whole number of batches (a
// torn snapshot shows either a foreign writer id or a partial batch),
// and per-branch visible counts never run backwards. Ends with a
// CloseContext drain racing in-flight scans.
func TestConcurrentScans(t *testing.T) {
	const (
		writers         = 4
		commitsPer      = 6
		recordsPerRound = 30
	)
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			db, err := decibel.Open(t.TempDir(), decibel.WithEngine(engine))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			schema := decibel.NewSchema().Int64("id").Int64("writer").Int64("round").MustBuild()
			if _, err := db.CreateTable("r", schema); err != nil {
				t.Fatal(err)
			}
			if _, _, err := db.Init("init"); err != nil {
				t.Fatal(err)
			}
			names := make([]string, writers)
			for w := range names {
				names[w] = fmt.Sprintf("worker-%d", w)
				if _, err := db.Branch("master", names[w]); err != nil {
					t.Fatal(err)
				}
			}

			var (
				wg          sync.WaitGroup
				writersLeft atomic.Int64
				mu          sync.Mutex
				failures    []string
			)
			failf := func(format string, args ...any) {
				mu.Lock()
				defer mu.Unlock()
				failures = append(failures, fmt.Sprintf(format, args...))
			}
			writersLeft.Store(writers)

			for w, name := range names {
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer writersLeft.Add(-1)
					for round := 0; round < commitsPer; round++ {
						_, err := db.Commit(name, func(tx *decibel.Tx) error {
							recs := make([]*decibel.Record, 0, recordsPerRound)
							for i := 0; i < recordsPerRound; i++ {
								rec := decibel.NewRecord(schema)
								rec.SetPK(int64(round*recordsPerRound + i))
								rec.Set(1, int64(w))
								rec.Set(2, int64(round))
								recs = append(recs, rec)
							}
							return tx.InsertBatch("r", recs)
						})
						if err != nil {
							failf("%s round %d: %v", name, round, err)
							return
						}
						// Mid-run structural churn racing the scans: a branch
						// off this head (freezing it on segment engines), and
						// one schema-epoch rotation on master.
						if round == 2 {
							if _, err := db.Branch(name, name+"-mid"); err != nil {
								failf("%s mid-branch: %v", name, err)
								return
							}
						}
						if w == 0 && round == 3 {
							if _, err := db.Commit("master", func(tx *decibel.Tx) error {
								return tx.AddColumn("r", decibel.Column{Name: "extra", Type: decibel.Int64}, decibel.Default(int64(-1)))
							}); err != nil {
								failf("schema rotation: %v", err)
								return
							}
						}
					}
				}()
			}

			// Readers: plain rows, ordered+limited rows, aggregates, diff
			// and heads.
			for r := 0; r < 6; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					lastCount := make(map[string]int)
					for writersLeft.Load() > 0 {
						for w, name := range names {
							n := 0
							rows, scanErr := db.Query("r").On(name).Rows()
							for rec := range rows {
								if got := rec.Get(1); got != int64(w) {
									failf("%s snapshot holds writer %d", name, got)
									return
								}
								n++
							}
							if err := scanErr(); err != nil {
								failf("rows on %s: %v", name, err)
								return
							}
							if n%recordsPerRound != 0 {
								failf("%s snapshot has %d records: torn batch", name, n)
								return
							}
							if n < lastCount[name] {
								failf("%s visible count ran backwards: %d after %d", name, n, lastCount[name])
								return
							}
							lastCount[name] = n

							k := 0
							rows, scanErr = db.Query("r").On(name).OrderBy("id", false).Limit(10).Rows()
							for rec := range rows {
								if got := rec.Get(1); got != int64(w) {
									failf("%s ordered snapshot holds writer %d", name, got)
									return
								}
								k++
							}
							if err := scanErr(); err != nil {
								failf("ordered rows on %s: %v", name, err)
								return
							}
							if k > 10 {
								failf("limit 10 emitted %d rows", k)
								return
							}
						}
						if _, err := db.Query("r").Heads().Count(); err != nil {
							failf("heads count: %v", err)
							return
						}
						rows, scanErr := db.Query("r").Diff(names[0], names[1])
						for rec := range rows {
							if got := rec.Get(1); got != 0 {
								failf("diff %s\\%s emitted writer %d", names[0], names[1], got)
								return
							}
						}
						if err := scanErr(); err != nil {
							failf("diff: %v", err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if len(failures) > 0 {
				t.Fatalf("%d failures, first: %s", len(failures), failures[0])
			}

			// CloseContext drains in-flight scans: fire scans and
			// close concurrently; scans either complete or fail with
			// ErrDatabaseClosed, and the drain itself must succeed.
			var rg sync.WaitGroup
			for r := 0; r < 4; r++ {
				rg.Add(1)
				go func() {
					defer rg.Done()
					for i := 0; i < 50; i++ {
						if _, err := db.Query("r").On(names[0]).Count(); err != nil {
							if !errors.Is(err, decibel.ErrDatabaseClosed) {
								failf("scan during drain: %v", err)
							}
							return
						}
					}
				}()
			}
			if err := db.CloseContext(context.Background()); err != nil {
				t.Fatalf("CloseContext during scans: %v", err)
			}
			rg.Wait()
			if len(failures) > 0 {
				t.Fatalf("%d failures, first: %s", len(failures), failures[0])
			}
		})
	}
}

// TestConcurrentHeadsAndBranchCreation: a Heads() read racing branch
// creation resolves only branches every engine already holds. Every
// branch is cut from master and never written, so each branch the read
// resolves must hold every master record; a branch the read sees before
// its engine registered it reads as empty instead, or fails.
func TestConcurrentHeadsAndBranchCreation(t *testing.T) {
	const rows, branches = 40, 100
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
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
			if _, err := db.Commit("master", func(tx *decibel.Tx) error {
				for pk := int64(1); pk <= rows; pk++ {
					rec := decibel.NewRecord(schema)
					rec.SetPK(pk)
					if err := tx.Insert("r", rec); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			var (
				stop    atomic.Bool
				wg      sync.WaitGroup
				mu      sync.Mutex
				failure error
			)
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						err := readAllHeads(db, rows)
						if err != nil {
							mu.Lock()
							failure = errors.Join(failure, err)
							mu.Unlock()
							return
						}
					}
				}()
			}
			for i := 0; i < branches; i++ {
				if _, err := db.Branch("master", fmt.Sprintf("b%03d", i)); err != nil {
					t.Fatal(err)
				}
			}
			stop.Store(true)
			wg.Wait()
			if failure != nil {
				t.Fatal(failure)
			}
		})
	}
}

// readAllHeads runs one Heads() read and checks that every record is
// live in every branch it resolved, and that it saw all rows.
func readAllHeads(db *decibel.DB, rows int) error {
	c, err := iquery.Plan{Table: "r", AllHeads: true, AtSeq: -1}.Compile(db.Database)
	if err != nil {
		return err
	}
	n, resolved := 0, len(c.Branches())
	var short error
	if err := c.Annotated(context.Background(), func(rec *record.Record, branches []string) bool {
		n++
		if got := len(branches); got != resolved {
			short = fmt.Errorf("record %d live in %d of the %d branches the read resolved", rec.PK(), got, resolved)
			return false
		}
		return true
	}); err != nil {
		return err
	}
	if short == nil && n != rows {
		short = fmt.Errorf("Heads() read %d records, want %d", n, rows)
	}
	return short
}

// TestConcurrentSameBranchCommits: many goroutines commit to ONE
// branch; CheckoutForWrite's lock-then-read-head ordering must
// serialize them so every commit lands and none fails ErrNotAtHead.
func TestConcurrentSameBranchCommits(t *testing.T) {
	const writers = 8
	db, err := decibel.Open(t.TempDir(), decibel.WithEngine("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	schema := decibel.NewSchema().Int64("id").Int64("writer").MustBuild()
	if _, err := db.CreateTable("r", schema); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Init("init"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := db.Commit("master", func(tx *decibel.Tx) error {
				rec := decibel.NewRecord(schema)
				rec.SetPK(int64(w))
				rec.Set(1, int64(w))
				return tx.Insert("r", rec)
			})
			if err != nil {
				errs <- fmt.Errorf("writer %d: %w", w, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	n := 0
	rows, scanErr := db.Rows("r", "master")
	for range rows {
		n++
	}
	if err := scanErr(); err != nil {
		t.Fatal(err)
	}
	if n != writers {
		t.Fatalf("master has %d records, want %d", n, writers)
	}
	// One commit per writer on top of init.
	master, err := db.BranchNamed("master")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(db.Graph().CommitsOnBranch(master.ID)); got != writers+1 {
		t.Fatalf("master has %d commits, want %d", got, writers+1)
	}
}

// TestAbortedCommitRollsBack: a failing Commit callback must leave no
// residue on the branch head — its inserts, updates, and deletes are
// all reverted to the last committed state, and the next successful
// commit must not pick any of them up.
func TestAbortedCommitRollsBack(t *testing.T) {
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			db, _, _ := openSeeded(t, engine) // pks 1..10, v=pk, committed
			defer db.Close()
			schema := decibel.NewSchema().Int64("id").Int64("v").MustBuild()

			boom := errors.New("boom")
			_, err := db.Commit("master", func(tx *decibel.Tx) error {
				up := decibel.NewRecord(schema)
				up.SetPK(3)
				up.Set(1, 999) // update an existing key
				if err := tx.Insert("r", up); err != nil {
					return err
				}
				fresh := decibel.NewRecord(schema)
				fresh.SetPK(42)
				fresh.Set(1, 1) // insert a new key
				if err := tx.Insert("r", fresh); err != nil {
					return err
				}
				if err := tx.Delete("r", 7); err != nil { // delete a committed key
					return err
				}
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatalf("aborted commit returned %v, want the callback's error", err)
			}

			check := func(phase string) {
				t.Helper()
				got := map[int64]int64{}
				rows, scanErr := db.Rows("r", "master")
				for rec := range rows {
					got[rec.PK()] = rec.Get(1)
				}
				if err := scanErr(); err != nil {
					t.Fatal(err)
				}
				if len(got) != 10 {
					t.Fatalf("%s: head has %d records, want the committed 10", phase, len(got))
				}
				if got[3] != 3 {
					t.Fatalf("%s: pk 3 = %d, want committed 3", phase, got[3])
				}
				if _, ok := got[42]; ok {
					t.Fatalf("%s: aborted insert of pk 42 visible", phase)
				}
				if got[7] != 7 {
					t.Fatalf("%s: pk 7 = %d, want committed 7 (aborted delete leaked)", phase, got[7])
				}
			}
			check("after abort")

			// The next successful commit must not make any residue durable.
			if _, err := db.Commit("master", func(tx *decibel.Tx) error { return nil }); err != nil {
				t.Fatal(err)
			}
			check("after next commit")
		})
	}
}

// TestMergeSerializesWithCommit: a merge racing an in-flight Commit on
// the target branch must wait for the transaction's exclusive lock, so
// it never snapshots a half-applied transaction.
func TestMergeSerializesWithCommit(t *testing.T) {
	db, _, _ := openSeeded(t, "hybrid")
	defer db.Close()
	schema := decibel.NewSchema().Int64("id").Int64("v").MustBuild()
	if _, err := db.Branch("master", "dev"); err != nil {
		t.Fatal(err)
	}

	const batch = 50
	inTx := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := db.Commit("master", func(tx *decibel.Tx) error {
			for i := 0; i < batch; i++ {
				rec := decibel.NewRecord(schema)
				rec.SetPK(int64(100 + i))
				rec.Set(1, 1)
				if err := tx.Insert("r", rec); err != nil {
					return err
				}
				if i == batch/2 {
					close(inTx) // half the writes applied; let the merge race
					<-release
				}
			}
			return nil
		})
		done <- err
	}()

	<-inTx
	mergeDone := make(chan error, 1)
	go func() {
		_, _, err := db.Merge("master", "dev")
		mergeDone <- err
	}()
	select {
	case err := <-mergeDone:
		t.Fatalf("merge finished while the transaction held the branch lock (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
		// Merge is blocked on master's exclusive lock, as it must be.
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := <-mergeDone; err != nil {
		t.Fatal(err)
	}

	// The merge committed after the transaction: all batch records plus
	// the seed are on master, and the merge commit is the head.
	n := 0
	rows, scanErr := db.Rows("r", "master")
	for range rows {
		n++
	}
	if err := scanErr(); err != nil {
		t.Fatal(err)
	}
	if n != 10+batch {
		t.Fatalf("master has %d records, want %d", n, 10+batch)
	}
}

// TestOppositeMergesDoNotDeadlock: two merges of the same pair of
// branches in opposite directions, each after a commit on its target,
// race in a loop. Merge takes both branches' locks in branch-ID order,
// so neither can hold one lock while waiting for the other: every call
// must succeed, with no wait bounded by anything but the test's ctx.
func TestOppositeMergesDoNotDeadlock(t *testing.T) {
	const rounds = 200
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			db, _, _ := openSeeded(t, engine)
			defer db.Close()
			schema := decibel.NewSchema().Int64("id").Int64("v").MustBuild()
			if _, err := db.Branch("master", "dev"); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()

			var wg sync.WaitGroup
			errs := make(chan error, 2)
			for w, pair := range [][2]string{{"master", "dev"}, {"dev", "master"}} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					into, from := pair[0], pair[1]
					for i := 0; i < rounds; i++ {
						_, err := db.CommitContext(ctx, into, func(tx *decibel.Tx) error {
							rec := decibel.NewRecord(schema)
							rec.SetPK(int64(1000 + 2*i + w))
							rec.Set(1, int64(i))
							return tx.Insert("r", rec)
						})
						if err != nil {
							errs <- fmt.Errorf("round %d: commit on %s: %w", i, into, err)
							return
						}
						if _, _, err := db.MergeContext(ctx, into, from); err != nil {
							errs <- fmt.Errorf("round %d: merge %s into %s: %w", i, from, into, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestNestedLockingCallFailsFast: a locking call made with a running
// transaction's context fails at once with ErrNestedTransaction,
// whichever branch it names — on its own branch it would otherwise
// wait on itself — and the outer transaction still commits.
func TestNestedLockingCallFailsFast(t *testing.T) {
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			db, _, _ := openSeeded(t, engine)
			defer db.Close()
			if _, err := db.Branch("master", "dev"); err != nil {
				t.Fatal(err)
			}
			noop := func(*decibel.Tx) error { return nil }
			_, err := db.Commit("master", func(tx *decibel.Tx) error {
				ctx := tx.Context()
				calls := []struct {
					name string
					call func() error
				}{
					{"CommitContext(master)", func() error { _, err := db.CommitContext(ctx, "master", noop); return err }},
					{"CommitContext(dev)", func() error { _, err := db.CommitContext(ctx, "dev", noop); return err }},
					{"MergeContext(master, dev)", func() error { _, _, err := db.MergeContext(ctx, "master", "dev"); return err }},
					{"BranchFromHead(master)", func() error { _, err := db.BranchFromHead(ctx, "nested", "master"); return err }},
				}
				for _, c := range calls {
					start := time.Now()
					err := c.call()
					if !errors.Is(err, decibel.ErrNestedTransaction) {
						return fmt.Errorf("%s inside a transaction: %v, want ErrNestedTransaction", c.name, err)
					}
					if d := time.Since(start); d > 100*time.Millisecond {
						return fmt.Errorf("%s took %v to fail, want under 100ms", c.name, d)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSelfMergeFails: merging a branch into itself names one lock
// twice; Merge takes it once and fails in the version graph instead of
// waiting on itself.
func TestSelfMergeFails(t *testing.T) {
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			db, _, _ := openSeeded(t, engine)
			defer db.Close()
			done := make(chan error, 1)
			go func() {
				_, _, err := db.Merge("master", "master")
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("self-merge succeeded")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("self-merge hung")
			}
			// The lock was released: the branch still takes commits.
			if _, err := db.Commit("master", func(*decibel.Tx) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLockWaitBoundedByContext: a commit waiting for a branch another
// transaction holds gives up when its context does, with the context's
// error; once the holder commits, the branch takes commits again.
func TestLockWaitBoundedByContext(t *testing.T) {
	db, _, _ := openSeeded(t, "hybrid")
	defer db.Close()
	noop := func(*decibel.Tx) error { return nil }
	inTx := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := db.Commit("master", func(*decibel.Tx) error {
			close(inTx)
			<-release
			return nil
		})
		done <- err
	}()

	<-inTx
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := db.CommitContext(ctx, "master", noop); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("commit waiting on a held branch: %v, want context.DeadlineExceeded", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := db.Commit("master", noop); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentVersionJoin: a version join reads both of its versions
// from one liveness snapshot. A writer flips branch r between two
// committed states of the keys it shares with branch l: in state A r
// holds l's own copies of keys 0..shared-1 (v = pk), in state B copies
// of its own (v = pk+1). To B is a commit on r; back to A is a commit on
// l rewriting those keys with unchanged values, then a two-way merge of
// l into r that l wins, which makes r adopt l's new copies. Readers join
// l ⋈ r on the key meanwhile, and every result must be the reference
// join at A or at B. A join whose walks each took their own snapshot
// stages l's rows as l-only under B, finds nothing r-only under A, and
// loses the shared keys.
func TestConcurrentVersionJoin(t *testing.T) {
	const (
		rows    = 2000
		shared  = 200
		flips   = 24
		readers = 3
	)
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
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
			put := func(branch string, n, dv int64) error {
				_, err := db.Commit(branch, func(tx *decibel.Tx) error {
					recs := make([]*decibel.Record, n)
					for pk := range n {
						recs[pk] = decibel.NewRecord(schema)
						recs[pk].SetPK(pk)
						recs[pk].Set(1, pk+dv)
					}
					return tx.InsertBatch("r", recs)
				})
				return err
			}
			if err := put("master", rows, 0); err != nil {
				t.Fatal(err)
			}
			for _, b := range []string{"l", "r"} {
				if _, err := db.Branch("master", b); err != nil {
					t.Fatal(err)
				}
			}
			// The reference joins: every key pairs v = pk with r's v, which
			// is pk+1 for the shared keys in state B.
			ref := func(dv int64) string {
				var sb strings.Builder
				for pk := int64(0); pk < rows; pk++ {
					rv := pk
					if pk < shared {
						rv += dv
					}
					fmt.Fprintf(&sb, "%d:%d:%d;", pk, pk, rv)
				}
				return sb.String()
			}
			stateA, stateB := ref(0), ref(1)

			var (
				wg      sync.WaitGroup
				done    atomic.Bool
				joins   atomic.Int64
				mu      sync.Mutex
				torn    []string
				readErr error
			)
			for range readers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var sb strings.Builder
					for !done.Load() {
						sb.Reset()
						tuples, errf := db.Query("r").On("l").
							JoinOn(db.Query("r").On("r"), decibel.On("id", "id")).Tuples()
						for tup := range tuples {
							fmt.Fprintf(&sb, "%d:%d:%d;", tup[0].PK(), tup[0].Get(1), tup[1].Get(1))
						}
						mu.Lock()
						if err := errf(); err != nil && readErr == nil {
							readErr = err
						}
						if got := sb.String(); got != stateA && got != stateB && len(torn) < 3 {
							torn = append(torn, got[:min(len(got), 200)])
						}
						mu.Unlock()
						joins.Add(1)
					}
				}()
			}
			var writeErr error
			for i := 0; i < flips && writeErr == nil; i++ {
				if writeErr = put("r", shared, 1); writeErr != nil {
					break
				}
				if writeErr = put("l", shared, 0); writeErr != nil {
					break
				}
				_, _, writeErr = db.Merge("r", "l", decibel.WithMergeKind(decibel.TwoWay), decibel.WithMergePrecedence(false))
			}
			done.Store(true)
			wg.Wait()
			if writeErr != nil {
				t.Fatal(writeErr)
			}
			if readErr != nil {
				t.Fatal(readErr)
			}
			if len(torn) > 0 {
				t.Fatalf("%d joins; results at neither state, e.g. %q", joins.Load(), torn)
			}
			// The flips end in state A, where r shares l's copies again.
			tuples, errf := db.Query("r").On("l").JoinOn(db.Query("r").On("r"), decibel.On("id", "id")).Tuples()
			var sb strings.Builder
			for tup := range tuples {
				fmt.Fprintf(&sb, "%d:%d:%d;", tup[0].PK(), tup[0].Get(1), tup[1].Get(1))
			}
			if err := errf(); err != nil || sb.String() != stateA {
				t.Fatalf("after the flips: %v, want state A", err)
			}
		})
	}
}
