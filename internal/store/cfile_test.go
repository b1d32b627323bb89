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
// rows×recSize bytes. The codec feeds two readers — the rows and the
// plane pre-filter's codes — so every dict and const plane it keeps
// must reproduce the decoded rows: values[codes[r]] (a const plane's
// one value) is row r's bytes at the plane's [off, off+width). Round-
// trips of valid pages are seeded so the fuzzer starts from
// structurally interesting corpora.
func FuzzCompressedPage(f *testing.F) {
	seed := func(recSize, perPage, n int, mod byte) []byte {
		data := make([]byte, n*recSize)
		for i := range data {
			data[i] = byte(i*31) % mod
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
	f.Add(seed(25, 16, 16, 255), uint16(25))
	f.Add(seed(9, 16, 5, 255), uint16(9))
	f.Add(seed(64, 8, 8, 255), uint16(64))
	f.Add(seed(17, 32, 32, 2), uint16(17)) // dict planes
	f.Add(seed(9, 4, 4, 1), uint16(9))     // const planes
	f.Add([]byte{}, uint16(8))
	f.Fuzz(func(t *testing.T, blk []byte, recSize16 uint16) {
		recSize := int(recSize16%512) + 1
		maxRows := 4096 / recSize
		if maxRows < 1 {
			maxRows = 1
		}
		pg, err := decodePage(blk, recSize, maxRows, -1)
		if err != nil {
			return
		}
		out := pg.Rows
		if len(out) == 0 || len(out)%recSize != 0 || len(out) > maxRows*recSize {
			t.Fatalf("decodePage returned %d bytes for recSize %d, maxRows %d", len(out), recSize, maxRows)
		}
		rows := len(out) / recSize
		for _, pl := range pg.Planes {
			if pl.Off < 0 || pl.Width <= 0 || pl.Off+pl.Width > recSize {
				t.Fatalf("plane at [%d,+%d) outside a %d-byte record", pl.Off, pl.Width, recSize)
			}
			if pl.Codes == nil && len(pl.Values) != pl.Width {
				t.Fatalf("const plane holds %d bytes, width %d", len(pl.Values), pl.Width)
			}
			if pl.Codes != nil && len(pl.Codes) != rows {
				t.Fatalf("dict plane holds %d codes for %d rows", len(pl.Codes), rows)
			}
			for r := 0; r < rows; r++ {
				code := 0
				if pl.Codes != nil {
					code = int(pl.Codes[r])
				}
				if (code+1)*pl.Width > len(pl.Values) {
					t.Fatalf("row %d code %d past %d values", r, code, len(pl.Values)/pl.Width)
				}
				got := pl.Values[code*pl.Width : (code+1)*pl.Width]
				if want := out[r*recSize+pl.Off : r*recSize+pl.Off+pl.Width]; !bytes.Equal(got, want) {
					t.Fatalf("row %d plane [%d,+%d): code %d gives %x, row holds %x", r, pl.Off, pl.Width, code, got, want)
				}
			}
		}
		if got := pg.Bytes(); got < int64(len(out)) {
			t.Fatalf("page reports %d resident bytes, rows alone hold %d", got, len(out))
		}
		// Successful decode must be deterministic and re-encodable: a
		// second decode of the same block yields identical bytes.
		pg2, err := decodePage(blk, recSize, maxRows, rows)
		if err != nil || !bytes.Equal(out, pg2.Rows) || len(pg.Planes) != len(pg2.Planes) {
			t.Fatalf("unstable decode: %v", err)
		}
	})
}

// TestCachedBytes: a compressed file's decoded-page cache is empty
// after open and holds exactly the pages a read touched.
func TestCachedBytes(t *testing.T) {
	s, err := record.NewSchema(
		record.Column{Name: "id", Type: record.Int64},
		record.Column{Name: "cat", Type: record.Int32},
	)
	if err != nil {
		t.Fatal(err)
	}
	w := NewCompressedWriter(s, 64)
	for i := 0; i < 200; i++ {
		r := record.New(s)
		r.Set(0, int64(i))
		r.Set(1, int64(i%3))
		if err := w.Append(r.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "c.dcz")
	if err := w.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCompressed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.CachedBytes(); got != 0 {
		t.Fatalf("%d cached bytes after open, want 0", got)
	}
	if err := c.Read(70, make([]byte, s.RecordSize())); err != nil {
		t.Fatal(err)
	}
	p1, err := c.Page(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Planes) == 0 || p1.Bytes() <= int64(len(p1.Rows)) {
		t.Fatalf("page 1 keeps %d planes in %d bytes beside %d row bytes", len(p1.Planes), p1.Bytes(), len(p1.Rows))
	}
	if got := c.CachedBytes(); got != p1.Bytes() {
		t.Fatalf("%d cached bytes after reading page 1, want %d", got, p1.Bytes())
	}
	if err := c.Scan(0, c.Count(), func(int64, []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	var want int64
	for i := 0; i < 4; i++ {
		pg, err := c.Page(i)
		if err != nil {
			t.Fatal(err)
		}
		want += pg.Bytes()
	}
	if got := c.CachedBytes(); got != want {
		t.Fatalf("%d cached bytes after a full scan, want %d", got, want)
	}
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
