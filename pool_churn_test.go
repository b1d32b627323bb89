package decibel_test

// Readers under buffer-pool churn: with a two-frame pool of 4 KiB
// pages nearly every page a read touches evicts a frame, and the miss
// reuses that frame's buffer for the next page. Readers of branches no
// writer touches check every row against the rows built at setup,
// while a writer commits to another branch and merges it, so its
// appends and merge reads churn the same two frames. A read path that
// keeps a page buffer past its pin, or a pool that recycles a pinned
// frame, shows up as a changed digest. Run it with -race: the CI race
// steps pick it up by name.

import (
	"fmt"
	"sync"
	"testing"

	"decibel"
)

// churnMix is the check column of row (pk, v): a row read from a frame
// holding another page's bytes fails it or the caller's digest.
func churnMix(pk, v int64) int64 {
	x := uint64(pk)*0x9e3779b97f4a7c15 ^ uint64(v)*0xc2b2ae3d27d4eb4f
	x ^= x >> 29
	return int64(x * 0xbf58476d1ce4e5b9)
}

// churnDigest is an order-independent digest of a row set.
type churnDigest struct{ n, sum int64 }

func (d *churnDigest) add(pk, v int64) { d.n++; d.sum += churnMix(pk, v) ^ pk }

func TestConcurrentReadsUnderPoolChurn(t *testing.T) {
	for _, engine := range []string{"version-first", "hybrid"} {
		t.Run(engine, func(t *testing.T) { runPoolChurn(t, engine) })
	}
}

func runPoolChurn(t *testing.T, engine string) {
	db, err := decibel.Open(t.TempDir(), decibel.WithEngine(engine),
		decibel.WithPageSize(4096), decibel.WithPoolPages(2))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	schema := decibel.NewSchema().Int64("id").Int64("v").Int64("check").MustBuild()
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
		rec.Set(2, churnMix(pk, v))
		return rec
	}
	put := func(branch string, pks []int64, v func(int64) int64) {
		t.Helper()
		if _, err := db.Commit(branch, func(tx *decibel.Tx) error {
			recs := make([]*decibel.Record, len(pks))
			for i, pk := range pks {
				recs[i] = mk(pk, v(pk))
			}
			return tx.InsertBatch("r", recs)
		}); err != nil {
			t.Fatal(err)
		}
	}
	// master holds 0..base-1 with v = pk, a dozen pages; stable keeps
	// that; fixed rewrites every tenth key and adds fresh keys, so the
	// diff fixed−stable is exactly those.
	const base = 2000
	var all, tenth, fresh []int64
	for pk := int64(0); pk < base; pk++ {
		all = append(all, pk)
		if pk%10 == 0 {
			tenth = append(tenth, pk)
		}
	}
	for pk := int64(base); pk < base+100; pk++ {
		fresh = append(fresh, pk)
	}
	put("master", all, func(pk int64) int64 { return pk })
	for _, b := range []string{"stable", "fixed", "dev"} {
		if _, err := db.Branch("master", b); err != nil {
			t.Fatal(err)
		}
	}
	put("fixed", tenth, func(pk int64) int64 { return pk + 1000 })
	put("fixed", fresh, func(pk int64) int64 { return -pk })
	var wantStable, wantDiff churnDigest
	for _, pk := range all {
		wantStable.add(pk, pk)
	}
	for _, pk := range tenth {
		wantDiff.add(pk, pk+1000)
	}
	for _, pk := range fresh {
		wantDiff.add(pk, -pk)
	}

	// fold reads a row set into a digest, checking each row's check
	// column on the way.
	fold := func(rows func(yield func(*decibel.Record) bool), errf func() error) (churnDigest, error) {
		var d churnDigest
		var bad error
		for rec := range rows {
			pk, v := rec.PK(), rec.Get(1)
			if rec.Get(2) != churnMix(pk, v) {
				bad = fmt.Errorf("row pk=%d v=%d carries check %d", pk, v, rec.Get(2))
				break
			}
			d.add(pk, v)
		}
		if err := errf(); err != nil {
			return d, err
		}
		return d, bad
	}
	rounds := 20
	if testing.Short() {
		rounds = 6
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	reader := func(name string, read func(i int) error) {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				if i >= rounds {
					return
				}
			default:
			}
			if err := read(i); err != nil {
				errs <- fmt.Errorf("%s round %d: %w", name, i, err)
				return
			}
		}
	}
	wg.Add(3)
	go reader("Rows(stable)", func(int) error {
		got, err := fold(db.Rows("r", "stable"))
		if err == nil && got != wantStable {
			err = fmt.Errorf("digest %+v, want %+v", got, wantStable)
		}
		return err
	})
	go reader("Diff(fixed, stable)", func(int) error {
		got, err := fold(db.Query("r").Diff("fixed", "stable"))
		if err == nil && got != wantDiff {
			err = fmt.Errorf("digest %+v, want %+v", got, wantDiff)
		}
		return err
	})
	go reader("point lookups", func(i int) error {
		for j := int64(0); j < 20; j++ {
			pk := (int64(i)*131 + j*97) % base
			v := pk
			if pk%10 == 0 {
				v += 1000 // one of fixed's rewrites
			}
			var want churnDigest
			want.add(pk, v)
			got, err := fold(db.Query("r").On("fixed").Where(decibel.Col("id").Eq(pk)).Rows())
			if err == nil && got != want {
				err = fmt.Errorf("pk %d: digest %+v, want %+v", pk, got, want)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})

	// The writer: commits to dev, merges dev into master, checks master.
	var writerErr error
	for r := 0; r < rounds && writerErr == nil; r++ {
		lo := int64(10000 + r*300)
		pks := make([]int64, 300)
		for i := range pks {
			pks[i] = lo + int64(i)
		}
		put("dev", pks, func(pk int64) int64 { return pk * 3 })
		if _, _, err := db.Merge("master", "dev"); err != nil {
			writerErr = err
			break
		}
		var got churnDigest
		if got, writerErr = fold(db.Rows("r", "master")); writerErr == nil && got.n != base+int64(r+1)*300 {
			writerErr = fmt.Errorf("master holds %d rows after merge %d, want %d", got.n, r, base+int64(r+1)*300)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	if writerErr != nil {
		t.Fatalf("writer: %v", writerErr)
	}
	for err := range errs {
		t.Error(err)
	}
}
