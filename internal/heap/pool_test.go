package heap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func newTestPool() *Pool { return NewPool(8, 4096) }

func mkRec(size int, slot int64) []byte {
	rec := make([]byte, size)
	binary.LittleEndian.PutUint64(rec, uint64(slot))
	for i := 8; i < size; i++ {
		rec[i] = byte(slot)
	}
	return rec
}

func TestAppendReadRoundTrip(t *testing.T) {
	pool := newTestPool()
	f, err := Open(pool, filepath.Join(t.TempDir(), "t.heap"), 100)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const n = 500 // spans many 4096-byte pages (40 recs/page)
	for i := int64(0); i < n; i++ {
		slot, err := f.Append(mkRec(100, i))
		if err != nil {
			t.Fatal(err)
		}
		if slot != i {
			t.Fatalf("slot = %d, want %d", slot, i)
		}
	}
	if f.Count() != n {
		t.Fatalf("count = %d", f.Count())
	}
	buf := make([]byte, 100)
	for _, i := range []int64{0, 39, 40, 123, n - 1} {
		if err := f.Read(i, buf); err != nil {
			t.Fatal(err)
		}
		if got := int64(binary.LittleEndian.Uint64(buf)); got != i {
			t.Fatalf("slot %d: payload %d", i, got)
		}
	}
	if err := f.Read(n, buf); err == nil {
		t.Fatal("read past end succeeded")
	}
	if err := f.Read(-1, buf); err == nil {
		t.Fatal("negative read succeeded")
	}
}

func TestAppendWrongSize(t *testing.T) {
	pool := newTestPool()
	f, err := Open(pool, filepath.Join(t.TempDir(), "t.heap"), 100)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Append(make([]byte, 99)); err == nil {
		t.Fatal("wrong-size append accepted")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.heap")
	pool := newTestPool()
	f, err := Open(pool, path, 64)
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	for i := int64(0); i < n; i++ {
		if _, err := f.Append(mkRec(64, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	pool2 := newTestPool()
	f2, err := Open(pool2, path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.Count() != n {
		t.Fatalf("reopened count = %d, want %d", f2.Count(), n)
	}
	buf := make([]byte, 64)
	for i := int64(0); i < n; i++ {
		if err := f2.Read(i, buf); err != nil {
			t.Fatal(err)
		}
		if got := int64(binary.LittleEndian.Uint64(buf)); got != i {
			t.Fatalf("slot %d: payload %d after reopen", i, got)
		}
	}
}

func TestTornTrailingRecordIgnored(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.heap")
	pool := newTestPool()
	f, err := Open(pool, path, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if _, err := f.Append(mkRec(64, i)); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	// Append 30 garbage bytes: a torn record.
	fh, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	fh.Write(make([]byte, 30))
	fh.Close()

	f2, err := Open(newTestPool(), path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.Count() != 10 {
		t.Fatalf("count with torn tail = %d, want 10", f2.Count())
	}
}

func TestScan(t *testing.T) {
	pool := newTestPool()
	f, err := Open(pool, filepath.Join(t.TempDir(), "t.heap"), 128)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const n = 200
	for i := int64(0); i < n; i++ {
		f.Append(mkRec(128, i))
	}
	var seen []int64
	err = f.Scan(0, n, func(slot int64, rec []byte) bool {
		if int64(binary.LittleEndian.Uint64(rec)) != slot {
			t.Fatalf("slot %d payload mismatch", slot)
		}
		seen = append(seen, slot)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("scanned %d records", len(seen))
	}
	// Partial range and early stop.
	count := 0
	f.Scan(50, 150, func(slot int64, rec []byte) bool {
		if slot < 50 {
			t.Fatal("scan below from")
		}
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop scanned %d", count)
	}
	// Range clamped to count.
	count = 0
	f.Scan(150, 100000, func(int64, []byte) bool { count++; return true })
	if count != 50 {
		t.Fatalf("clamped scan saw %d", count)
	}
}

func TestEvictionWritesBackDirtyPages(t *testing.T) {
	// Pool of 2 pages; write far more pages than fit.
	pool := NewPool(2, 1024)
	f, err := Open(pool, filepath.Join(t.TempDir(), "t.heap"), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const n = 64 // 4 recs/page -> 16 pages
	for i := int64(0); i < n; i++ {
		if _, err := f.Append(mkRec(256, i)); err != nil {
			t.Fatal(err)
		}
	}
	_, _, ev := pool.Stats()
	if ev == 0 {
		t.Fatal("no evictions despite tiny pool")
	}
	buf := make([]byte, 256)
	for i := int64(0); i < n; i++ {
		if err := f.Read(i, buf); err != nil {
			t.Fatal(err)
		}
		if got := int64(binary.LittleEndian.Uint64(buf)); got != i {
			t.Fatalf("slot %d read back %d after eviction", i, got)
		}
	}
}

func TestPoolHitMissStats(t *testing.T) {
	pool := NewPool(4, 1024)
	f, err := Open(pool, filepath.Join(t.TempDir(), "t.heap"), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Append(mkRec(256, 0))
	buf := make([]byte, 256)
	f.Read(0, buf)
	f.Read(0, buf)
	hits, misses, _ := pool.Stats()
	if hits < 2 || misses < 1 {
		t.Fatalf("stats hits=%d misses=%d", hits, misses)
	}
}

func TestFreeze(t *testing.T) {
	pool := newTestPool()
	f, err := Open(pool, filepath.Join(t.TempDir(), "t.heap"), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Append(mkRec(64, 0))
	f.Freeze()
	if _, err := f.Append(mkRec(64, 1)); err == nil {
		t.Fatal("append to frozen file succeeded")
	}
	buf := make([]byte, 64)
	if err := f.Read(0, buf); err != nil {
		t.Fatal("read from frozen file failed")
	}
}

func TestMultipleFilesShareOnePool(t *testing.T) {
	pool := NewPool(4, 1024)
	dir := t.TempDir()
	var files []*File
	for i := 0; i < 5; i++ {
		f, err := Open(pool, filepath.Join(dir, fmt.Sprintf("f%d.heap", i)), 128)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		files = append(files, f)
	}
	for round := int64(0); round < 30; round++ {
		for fi, f := range files {
			if _, err := f.Append(mkRec(128, round*10+int64(fi))); err != nil {
				t.Fatal(err)
			}
		}
	}
	buf := make([]byte, 128)
	for fi, f := range files {
		for round := int64(0); round < 30; round++ {
			if err := f.Read(round, buf); err != nil {
				t.Fatal(err)
			}
			if got := int64(binary.LittleEndian.Uint64(buf)); got != round*10+int64(fi) {
				t.Fatalf("file %d slot %d: got %d", fi, round, got)
			}
		}
	}
}

func TestRecordLargerThanPageRejected(t *testing.T) {
	pool := NewPool(4, 1024)
	if _, err := Open(pool, filepath.Join(t.TempDir(), "t.heap"), 2048); err == nil {
		t.Fatal("record larger than page accepted")
	}
}

func TestRandomizedAgainstModel(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	pool := NewPool(3, 512) // tiny pool forces constant eviction
	f, err := Open(pool, filepath.Join(t.TempDir(), "t.heap"), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var model [][]byte
	buf := make([]byte, 64)
	for op := 0; op < 2000; op++ {
		if r.Intn(2) == 0 || len(model) == 0 {
			rec := mkRec(64, int64(r.Int63()))
			if _, err := f.Append(rec); err != nil {
				t.Fatal(err)
			}
			model = append(model, append([]byte(nil), rec...))
		} else {
			i := int64(r.Intn(len(model)))
			if err := f.Read(i, buf); err != nil {
				t.Fatal(err)
			}
			if string(buf) != string(model[i]) {
				t.Fatalf("op %d: slot %d diverged from model", op, i)
			}
		}
	}
}

func BenchmarkHeapAppend(b *testing.B) {
	pool := NewPool(64, 64<<10)
	f, err := Open(pool, filepath.Join(b.TempDir(), "t.heap"), 1024)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	rec := mkRec(1024, 7)
	b.ReportAllocs()
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeapScan(b *testing.B) {
	pool := NewPool(64, 64<<10)
	f, err := Open(pool, filepath.Join(b.TempDir(), "t.heap"), 1024)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	rec := mkRec(1024, 7)
	const n = 10000
	for i := 0; i < n; i++ {
		f.Append(rec)
	}
	b.ReportAllocs()
	b.SetBytes(n * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := 0
		f.Scan(0, n, func(slot int64, rec []byte) bool { sum += int(rec[0]); return true })
	}
}

// TestFlushWritesOnlyNewBytes: a flush writes back what was appended
// since the page was last clean, not the whole page. Bytes on disk
// before it — here overwritten behind the pool's back — stay as they
// are, and every appended record reaches the file.
func TestFlushWritesOnlyNewBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.heap")
	f, err := Open(newTestPool(), path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := int64(0); i < 3; i++ {
		if _, err := f.Append(mkRec(64, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	marker := []byte("written behind the pool")
	raw, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.WriteAt(marker, 0); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	for i := int64(3); i < 5; i++ {
		if _, err := f.Append(mkRec(64, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Flush(); err != nil { // clean: nothing to write
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 5*64 {
		t.Fatalf("file holds %d bytes, want %d", len(data), 5*64)
	}
	if !bytes.Equal(data[:len(marker)], marker) {
		t.Fatalf("flush rewrote the page's clean prefix: %q", data[:len(marker)])
	}
	for i := int64(3); i < 5; i++ {
		if got := data[i*64 : (i+1)*64]; !bytes.Equal(got, mkRec(64, i)) {
			t.Fatalf("slot %d not on disk after flush", i)
		}
	}
}
