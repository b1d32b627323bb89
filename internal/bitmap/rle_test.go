package bitmap

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestRLERoundTripShapes(t *testing.T) {
	cases := []func() *Bitmap{
		func() *Bitmap { return New(0) },
		func() *Bitmap { return New(1) },
		func() *Bitmap { b := New(1); b.Set(0); return b },
		func() *Bitmap { return New(64 * 100) }, // all zeros: one run token
		func() *Bitmap { // all ones
			b := New(64 * 100)
			for i := 0; i < b.Len(); i++ {
				b.Set(i)
			}
			return b
		},
		func() *Bitmap { // alternating literals
			b := New(1000)
			for i := 0; i < 1000; i += 2 {
				b.Set(i)
			}
			return b
		},
		func() *Bitmap { // sparse: zero runs dominate
			b := New(1 << 16)
			b.Set(5)
			b.Set(40000)
			return b
		},
		func() *Bitmap { // length not word-aligned
			b := New(67)
			b.Set(66)
			return b
		},
	}
	for i, mk := range cases {
		b := mk()
		enc := MarshalRLE(b)
		got, used, err := DecodeRLE(enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if used != len(enc) {
			t.Fatalf("case %d: consumed %d of %d bytes", i, used, len(enc))
		}
		if !got.Equal(b) || got.Len() != b.Len() {
			t.Fatalf("case %d: round trip mismatch", i)
		}
	}
}

func TestRLESparseCompresses(t *testing.T) {
	b := New(1 << 20)
	b.Set(123456)
	enc := MarshalRLE(b)
	dense := denseBytes(b)
	if len(enc) >= dense/100 {
		t.Fatalf("sparse RLE too large: %d bytes vs dense %d", len(enc), dense)
	}
}

func TestRLEDecodeConcatenatedStream(t *testing.T) {
	a := New(100)
	a.Set(3)
	b := New(200)
	b.Set(150)
	stream := AppendRLE(AppendRLE(nil, a), b)
	got1, n1, err := DecodeRLE(stream)
	if err != nil || !got1.Equal(a) {
		t.Fatalf("first decode: %v", err)
	}
	got2, n2, err := DecodeRLE(stream[n1:])
	if err != nil || !got2.Equal(b) {
		t.Fatalf("second decode: %v", err)
	}
	if n1+n2 != len(stream) {
		t.Fatalf("stream not fully consumed: %d+%d != %d", n1, n2, len(stream))
	}
}

func TestRLETruncatedInputs(t *testing.T) {
	b := New(10000)
	for i := 0; i < 10000; i += 3 {
		b.Set(i)
	}
	enc := MarshalRLE(b)
	for cut := 0; cut < len(enc); cut += 13 {
		if _, _, err := DecodeRLE(enc[:cut]); err == nil {
			// A prefix may decode successfully only if it is itself a
			// complete encoding, which cannot happen for proper prefixes
			// of a valid stream (decode is deterministic in word count).
			t.Fatalf("truncated input at %d decoded without error", cut)
		}
	}
}

func TestQuickRLERoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := randomBitmap(r, 5000)
		got, used, err := DecodeRLE(MarshalRLE(b))
		return err == nil && got.Equal(b) && got.Len() == b.Len() && used == len(MarshalRLE(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCommitLogAppendCheckout(t *testing.T) {
	dir := t.TempDir()
	cl, err := OpenCommitLog(filepath.Join(dir, "b0.hist"), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var snaps []*Bitmap
	cur := New(0)
	r := rand.New(rand.NewSource(7))
	for c := 0; c < 25; c++ {
		for i := 0; i < 50; i++ {
			cur.Set(r.Intn(5000))
		}
		if r.Intn(2) == 0 {
			cur.Clear(r.Intn(5000))
		}
		id, err := cl.Append(cur)
		if err != nil {
			t.Fatal(err)
		}
		if id != c {
			t.Fatalf("commit id = %d, want %d", id, c)
		}
		snaps = append(snaps, cur.Clone())
	}
	if cl.NumCommits() != 25 {
		t.Fatalf("NumCommits = %d", cl.NumCommits())
	}
	for c, want := range snaps {
		got, err := cl.Checkout(c)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("checkout %d mismatch", c)
		}
	}
	if !cl.Head().Equal(snaps[len(snaps)-1]) {
		t.Fatal("head mismatch")
	}
	if _, err := cl.Checkout(25); err == nil {
		t.Fatal("out of range checkout succeeded")
	}
	if _, err := cl.Checkout(-1); err == nil {
		t.Fatal("negative checkout succeeded")
	}
}

// The log copies in and copies out: once Append(bm) returns, mutating
// bm, a Head result or a Checkout result changes no later Head or
// Checkout. The tuple-first engine relies on both halves — it appends
// its live branch columns, and adopts what Head and Checkout return as
// columns it then mutates.
func TestCommitLogCopiesInAndOut(t *testing.T) {
	cl, err := OpenCommitLog(filepath.Join(t.TempDir(), "b.hist"), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	bm := New(0)
	var snaps []*Bitmap
	for i := 0; i < 5; i++ {
		bm.Set(3 * i)
		if _, err := cl.Append(bm); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, bm.Clone())
	}
	mutate := func(b *Bitmap) { b.Clear(0); b.Set(1); b.Set(1000) }
	check := func(after string) {
		t.Helper()
		if !cl.Head().Equal(snaps[len(snaps)-1]) {
			t.Fatalf("after mutating %s: Head changed", after)
		}
		for i, want := range snaps {
			got, err := cl.Checkout(i)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("after mutating %s: Checkout(%d) changed", after, i)
			}
		}
	}
	mutate(bm)
	check("the appended bitmap")
	mutate(cl.Head())
	check("a Head result")
	for i := range snaps {
		c, err := cl.Checkout(i)
		if err != nil {
			t.Fatal(err)
		}
		mutate(c)
	}
	check("Checkout results")
}

func TestCommitLogReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "b.hist")
	cl, err := OpenCommitLog(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []*Bitmap
	cur := New(0)
	for c := 0; c < 10; c++ {
		cur.Set(c * 17)
		if _, err := cl.Append(cur); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, cur.Clone())
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	cl2, err := OpenCommitLog(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if cl2.NumCommits() != 10 {
		t.Fatalf("reopened NumCommits = %d", cl2.NumCommits())
	}
	for c, want := range snaps {
		got, err := cl2.Checkout(c)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("reopened checkout %d mismatch", c)
		}
	}
	// Continue appending after reopen; composite layer must stay valid.
	cur.Set(9999)
	if _, err := cl2.Append(cur); err != nil {
		t.Fatal(err)
	}
	got, err := cl2.Checkout(10)
	if err != nil || !got.Equal(cur) {
		t.Fatalf("append after reopen: %v", err)
	}
}

func TestCommitLogTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "b.hist")
	cl, err := OpenCommitLog(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	cur := New(0)
	var snaps []*Bitmap
	for c := 0; c < 6; c++ {
		cur.Set(c * 100)
		if _, err := cl.Append(cur); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, cur.Clone())
	}
	cl.Close()

	// Chop bytes off the tail to simulate a torn final entry.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	cl2, err := OpenCommitLog(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if cl2.NumCommits() != 5 {
		t.Fatalf("after torn tail NumCommits = %d, want 5", cl2.NumCommits())
	}
	for c := 0; c < 5; c++ {
		got, err := cl2.Checkout(c)
		if err != nil || !got.Equal(snaps[c]) {
			t.Fatalf("post-recovery checkout %d mismatch (%v)", c, err)
		}
	}
	// The log must accept new commits after recovery.
	cur2, _ := cl2.Checkout(4)
	cur2.Set(777)
	if _, err := cl2.Append(cur2); err != nil {
		t.Fatal(err)
	}
	got, err := cl2.Checkout(5)
	if err != nil || !got.Equal(cur2) {
		t.Fatalf("append after recovery: %v", err)
	}
}

func TestCommitLogSizeGrowsSlowly(t *testing.T) {
	dir := t.TempDir()
	cl, err := OpenCommitLog(filepath.Join(dir, "b.hist"), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cur := New(1 << 18)
	for c := 0; c < 20; c++ {
		cur.Set(c) // one new bit per commit: deltas are tiny
		if _, err := cl.Append(cur); err != nil {
			t.Fatal(err)
		}
	}
	sz, err := cl.Size()
	if err != nil {
		t.Fatal(err)
	}
	if dense := denseBytes(cur); sz > int64(dense) {
		t.Fatalf("20 sparse deltas take %d bytes, more than one dense snapshot (%d)", sz, dense)
	}
}

// denseBytes is the size of b stored uncompressed: a length word and
// its bit words.
func denseBytes(b *Bitmap) int { return 8 + 8*wordsFor(b.Len()) }

func BenchmarkCommitLogAppend(b *testing.B) {
	dir := b.TempDir()
	cl, err := OpenCommitLog(filepath.Join(dir, "b.hist"), 16)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	cur := New(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur.Set(i % (1 << 20))
		if _, err := cl.Append(cur); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCommitLogCheckout(b *testing.B) {
	dir := b.TempDir()
	cl, err := OpenCommitLog(filepath.Join(dir, "b.hist"), 16)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	cur := New(1 << 18)
	for c := 0; c < 200; c++ {
		cur.Set(c * 13 % (1 << 18))
		if _, err := cl.Append(cur); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Checkout(i % 200); err != nil {
			b.Fatal(err)
		}
	}
}
