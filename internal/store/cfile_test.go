package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"decibel/internal/record"
)

func cTestSchema(t *testing.T) *record.Schema {
	t.Helper()
	s, err := record.NewSchema(
		record.Column{Name: "id", Type: record.Int64},
		record.Column{Name: "qty", Type: record.Int32},
		record.Column{Name: "price", Type: record.Float64},
		record.Column{Name: "tag", Type: record.Bytes, Size: 12},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// cTestRecords builds n encoded records with compressible shape:
// sequential ids (delta), low-cardinality qty and tag (dict/const),
// varied price (raw).
func cTestRecords(t *testing.T, s *record.Schema, n int) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	tags := []string{"alpha", "beta", "gamma"}
	recs := make([][]byte, n)
	for i := range recs {
		r := record.New(s)
		r.Set(0, int64(1000+i))
		r.Set(1, int64(i%4))
		r.SetFloat64(2, rng.Float64()*100)
		if err := r.SetBytes(3, []byte(tags[i%len(tags)])); err != nil {
			t.Fatal(err)
		}
		recs[i] = append([]byte(nil), r.Bytes()...)
	}
	return recs
}

func writeCompressed(t *testing.T, s *record.Schema, recs [][]byte, perPage int) string {
	t.Helper()
	w := NewCompressedWriter(s, perPage)
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "seg.dcz")
	if err := w.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompressedRoundTrip(t *testing.T) {
	s := cTestSchema(t)
	const n = 257 // several pages plus a short tail page
	recs := cTestRecords(t, s, n)
	path := writeCompressed(t, s, recs, 64)

	c, err := OpenCompressed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if c.Count() != n {
		t.Fatalf("Count = %d, want %d", c.Count(), n)
	}
	if c.RecordSize() != s.RecordSize() {
		t.Fatalf("RecordSize = %d, want %d", c.RecordSize(), s.RecordSize())
	}
	if c.DiskBytes() >= c.SizeBytes() {
		t.Errorf("no compression: disk %d >= raw %d", c.DiskBytes(), c.SizeBytes())
	}

	// Point reads.
	dst := make([]byte, s.RecordSize())
	for i, want := range recs {
		if err := c.Read(int64(i), dst); err != nil {
			t.Fatalf("Read(%d): %v", i, err)
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("Read(%d) mismatch", i)
		}
	}
	if err := c.Read(n, dst); err == nil {
		t.Fatal("Read past count succeeded")
	}

	// Full scan, order and contents.
	next := int64(0)
	err = c.Scan(0, n, func(slot int64, rec []byte) bool {
		if slot != next {
			t.Fatalf("scan slot %d, want %d", slot, next)
		}
		if !bytes.Equal(rec, recs[slot]) {
			t.Fatalf("scan slot %d mismatch", slot)
		}
		next++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != n {
		t.Fatalf("scanned %d records, want %d", next, n)
	}

	// Range scan with early stop.
	got := 0
	if err := c.Scan(100, 200, func(slot int64, rec []byte) bool {
		got++
		return got < 10
	}); err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("early-stop scan saw %d records, want 10", got)
	}

	// Immutability.
	if _, err := c.Append(recs[0]); err == nil {
		t.Fatal("Append to compressed file succeeded")
	}

	// Logical truncate.
	if err := c.Truncate(n + 1); err == nil {
		t.Fatal("Truncate past count succeeded")
	}
	if err := c.Truncate(10); err != nil {
		t.Fatal(err)
	}
	if c.Count() != 10 {
		t.Fatalf("Count after truncate = %d, want 10", c.Count())
	}
	saw := 0
	if err := c.Scan(0, n, func(int64, []byte) bool { saw++; return true }); err != nil {
		t.Fatal(err)
	}
	if saw != 10 {
		t.Fatalf("scan after truncate saw %d records, want 10", saw)
	}
}

// TestCompressedCorruption flips every byte of a small file one at a
// time: each corrupt copy must either fail to open, fail to scan, or
// (if the flip is in logically-dead space) still return byte-exact
// records. Wrong records are never acceptable.
func TestCompressedCorruption(t *testing.T) {
	s := cTestSchema(t)
	recs := cTestRecords(t, s, 50)
	path := writeCompressed(t, s, recs, 16)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for off := range orig {
		corrupt := append([]byte(nil), orig...)
		corrupt[off] ^= 0x5a
		p := filepath.Join(dir, "c.dcz")
		if err := os.WriteFile(p, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCompressed(p)
		if err != nil {
			continue // detected at open: fine
		}
		scanErr := c.Scan(0, int64(len(recs)), func(slot int64, rec []byte) bool {
			if !bytes.Equal(rec, recs[slot]) {
				t.Fatalf("flip at %d: slot %d misdecoded without error", off, slot)
			}
			return true
		})
		c.Close()
		_ = scanErr // detected at scan (or benign): fine either way
	}
}

// FuzzCompressedPage throws arbitrary bytes at the page decoder. The
// decoder must never panic, and on success must produce exactly
// rows×recSize bytes. Round-trips of valid pages are seeded so the
// fuzzer starts from structurally interesting corpora.
func FuzzCompressedPage(f *testing.F) {
	seed := func(recSize, perPage, n int) []byte {
		data := make([]byte, n*recSize)
		for i := range data {
			data[i] = byte(i * 31)
		}
		planes := []cplane{{0, 1}}
		for at := 1; at < recSize; at += 8 {
			w := 8
			if at+w > recSize {
				w = recSize - at
			}
			planes = append(planes, cplane{at, w})
		}
		return encodePage(nil, data, n, recSize, planes)
	}
	f.Add(seed(25, 16, 16), uint16(25))
	f.Add(seed(9, 16, 5), uint16(9))
	f.Add(seed(64, 8, 8), uint16(64))
	f.Add([]byte{}, uint16(8))
	f.Fuzz(func(t *testing.T, blk []byte, recSize16 uint16) {
		recSize := int(recSize16%512) + 1
		maxRows := 4096 / recSize
		if maxRows < 1 {
			maxRows = 1
		}
		out, err := decodePage(blk, recSize, maxRows, -1)
		if err != nil {
			return
		}
		if len(out) == 0 || len(out)%recSize != 0 || len(out) > maxRows*recSize {
			t.Fatalf("decodePage returned %d bytes for recSize %d, maxRows %d", len(out), recSize, maxRows)
		}
		// Successful decode must be deterministic and re-encodable: a
		// second decode of the same block yields identical bytes.
		out2, err := decodePage(blk, recSize, maxRows, len(out)/recSize)
		if err != nil || !bytes.Equal(out, out2) {
			t.Fatalf("unstable decode: %v", err)
		}
	})
}

// TestCompressedWriterPicksEncodings sanity-checks that the writer
// actually chooses the specialized encodings on fixtures shaped for
// them, by measuring the file footprint against raw size.
func TestCompressedWriterPicksEncodings(t *testing.T) {
	s, err := record.NewSchema(
		record.Column{Name: "id", Type: record.Int64},
		record.Column{Name: "tag", Type: record.Bytes, Size: 32},
	)
	if err != nil {
		t.Fatal(err)
	}
	w := NewCompressedWriter(s, 256)
	for i := 0; i < 1024; i++ {
		r := record.New(s)
		r.Set(0, int64(i)) // delta: ~1 byte/row
		if err := r.SetBytes(1, []byte(fmt.Sprintf("tag-%d", i%5))); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(r.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "enc.dcz")
	if err := w.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCompressed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	raw := c.SizeBytes()
	if c.DiskBytes()*4 > raw {
		t.Fatalf("dict/delta fixture compressed to %d of %d raw bytes, want at least 4x", c.DiskBytes(), raw)
	}
}
