package decibel_test

// Lineage-cache invalidation under concurrency: readers resolving
// branch heads and pinned historical commits race writers that commit,
// branch and merge (merges fill override tables after the first
// resolution — the cache's one true invalidation hazard) while
// a compaction pass every 5 ms replaces segment files underneath until
// the writers finish. Run with -race
// (the CI race matrix picks the test up by name). The pinned AtCommit
// reader is the strong assertion: a committed version is immutable, so
// every re-read must be byte-identical to the snapshot taken before
// the writers started — a stale or torn cache entry shows up as a
// changed row set.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decibel"
)

func TestConcurrentVFCacheInvalidation(t *testing.T) {
	db, err := decibel.Open(t.TempDir(), decibel.WithEngine("vf"),
		decibel.WithCompaction("manual"))
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
	mk := func(pk, v int64) *decibel.Record {
		rec := decibel.NewRecord(schema)
		rec.SetPK(pk)
		rec.Set(1, v)
		return rec
	}
	const baseRows = 300
	pinned, err := db.Commit("master", func(tx *decibel.Tx) error {
		recs := make([]*decibel.Record, baseRows)
		for i := range recs {
			recs[i] = mk(int64(i), int64(i))
		}
		return tx.InsertBatch("r", recs)
	})
	if err != nil {
		t.Fatal(err)
	}

	readPinned := func() ([]string, error) {
		rows, scanErr := db.Query("r").On("master").AtCommit(pinned.ID).Rows()
		var out []string
		for rec := range rows {
			out = append(out, rec.String())
		}
		if err := scanErr(); err != nil {
			return nil, err
		}
		sort.Strings(out)
		return out, nil
	}
	want, err := readPinned()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != baseRows {
		t.Fatalf("pinned snapshot has %d rows, want %d", len(want), baseRows)
	}

	var (
		wg      sync.WaitGroup
		writing sync.WaitGroup // the writer and the merger
		done    atomic.Bool
	)
	errs := make(chan error, 16)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	stopCompact := compactEvery(t, db, 5*time.Millisecond)

	// Writer: committed updates marching over the base rows.
	wg.Add(1)
	writing.Add(1)
	go func() {
		defer wg.Done()
		defer writing.Done()
		for round := 0; round < 15; round++ {
			if _, err := db.Commit("master", func(tx *decibel.Tx) error {
				lo := (round * 20) % baseRows
				for pk := lo; pk < lo+20; pk++ {
					if err := tx.Insert("r", mk(int64(pk), int64(pk+1000*(round+1)))); err != nil {
						return err
					}
				}
				return tx.Delete("r", int64((round*7)%baseRows))
			}); err != nil {
				fail(fmt.Errorf("writer round %d: %w", round, err))
				return
			}
		}
	}()

	// Merger: branch off master, change a private slice, merge back.
	// Each merge invalidates the new head's cached resolutions.
	wg.Add(1)
	writing.Add(1)
	go func() {
		defer wg.Done()
		defer writing.Done()
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("m%d", i)
			if _, err := db.Branch("master", name); err != nil {
				fail(fmt.Errorf("branch %s: %w", name, err))
				return
			}
			if _, err := db.Commit(name, func(tx *decibel.Tx) error {
				for pk := 1000 + i*10; pk < 1000+i*10+10; pk++ {
					if err := tx.Insert("r", mk(int64(pk), int64(pk))); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				fail(fmt.Errorf("commit %s: %w", name, err))
				return
			}
			if _, _, err := db.Merge("master", name); err != nil {
				fail(fmt.Errorf("merge %s: %w", name, err))
				return
			}
		}
	}()

	// Head readers: master's live set morphs, but every scan must
	// complete cleanly and never shrink below the surviving base rows.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				rows, scanErr := db.Rows("r", "master")
				n := 0
				for range rows {
					n++
				}
				if err := scanErr(); err != nil {
					fail(fmt.Errorf("head reader: %w", err))
					return
				}
				if n < baseRows-15 {
					fail(fmt.Errorf("head reader: %d rows, want >= %d", n, baseRows-15))
					return
				}
			}
		}()
	}

	// Pinned readers: the committed version must never change.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				got, err := readPinned()
				if err != nil {
					fail(fmt.Errorf("pinned reader: %w", err))
					return
				}
				if len(got) != len(want) {
					fail(fmt.Errorf("pinned reader: %d rows, want %d", len(got), len(want)))
					return
				}
				for i := range got {
					if got[i] != want[i] {
						fail(fmt.Errorf("pinned reader: row %d changed: %q != %q", i, got[i], want[i]))
						return
					}
				}
			}
		}()
	}

	// Diff readers: master vs the pinned fork point, racing the merges.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := db.Branch("master", "anchor"); err != nil {
			fail(fmt.Errorf("branch anchor: %w", err))
			return
		}
		for !done.Load() {
			rows, scanErr := db.Query("r").Diff("master", "anchor")
			for range rows {
			}
			if err := scanErr(); err != nil {
				fail(fmt.Errorf("diff reader: %w", err))
				return
			}
		}
	}()

	// Let the writers finish, then release the readers.
	writersDone := make(chan struct{})
	go func() {
		defer close(writersDone)
		wg.Wait()
	}()
	go func() {
		time.Sleep(400 * time.Millisecond)
		done.Store(true)
	}()
	writing.Wait()
	stopCompact()
	<-writersDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// One compaction pass after the dust settles, then the pinned view
	// must still match (compaction drops the cached plans; the re-read
	// resolves fresh against the replaced files).
	if _, err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	got, err := readPinned()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if i >= len(want) || got[i] != want[i] {
			t.Fatalf("post-compaction pinned read diverged at row %d", i)
		}
	}
}
