package bitmap

import (
	"encoding/binary"
	"errors"
	"fmt"
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
		if _, err := xorRLE(nil, enc[:cut]); err == nil {
			t.Fatalf("truncated input at %d validated without error", cut)
		}
		if _, err := xorRLE(New(100), enc[:cut]); err == nil {
			t.Fatalf("truncated input at %d XOR-decoded without error", cut)
		}
	}
}

// xorRLEMismatch says how xorRLE, validating (nil dst) and XOR-ing into
// a copy of dst, departs from XOR-ing DecodeRLE's result into dst: in
// what it accepts, in the bytes it consumes, in the bitmap it leaves
// and in that bitmap's length. "" when it does not.
func xorRLEMismatch(dst *Bitmap, data []byte) string {
	ref, refUsed, refErr := DecodeRLE(data)
	for _, into := range []*Bitmap{nil, dst.Clone()} {
		used, err := xorRLE(into, data)
		if (err == nil) != (refErr == nil) {
			return fmt.Sprintf("xorRLE(dst=%v) err %v; DecodeRLE err %v", into != nil, err, refErr)
		}
		if err != nil {
			continue
		}
		if used != refUsed {
			return fmt.Sprintf("xorRLE(dst=%v) consumed %d bytes; DecodeRLE %d", into != nil, used, refUsed)
		}
		if want := Xor(dst, ref); into != nil && (!into.Equal(want) || into.Len() != want.Len()) {
			return fmt.Sprintf("xorRLE left %v (%d bits); Xor(dst, decoded) is %v (%d bits)", into, into.Len(), want, want.Len())
		}
	}
	return ""
}

// rleCases are encodings DecodeRLE accepts — every run kind, lengths
// off a word boundary, a literal or a one-run ending past the length —
// and some it rejects.
func rleCases() [][]byte {
	var out [][]byte
	b := New(10000)
	for i := 0; i < 10000; i += 3 {
		b.Set(i)
	}
	sparse := New(1<<16 + 5)
	sparse.Set(5)
	sparse.Set(1 << 16)
	ones := New(130)
	for i := 0; i < 130; i++ {
		ones.Set(i)
	}
	for _, bm := range []*Bitmap{New(0), New(1), New(67), b, sparse, ones} {
		out = append(out, MarshalRLE(bm))
	}
	tok := func(count, kind uint64) []byte { return binary.AppendUvarint(nil, count<<2|kind) }
	hdr := func(n uint64) []byte { return binary.AppendUvarint(nil, n) }
	cat := func(parts ...[]byte) []byte {
		var s []byte
		for _, p := range parts {
			s = append(s, p...)
		}
		return s
	}
	lit := binary.LittleEndian.AppendUint64(nil, ^uint64(0)>>1)
	out = append(out,
		cat(hdr(70), tok(1, runOne), tok(1, literals), lit), // both ending words carry bits past 70
		cat(hdr(70), tok(2, literals), lit, lit, []byte{9}), // trailing byte: not consumed
		cat(hdr(128), tok(0, runZero), tok(2, runZero)),     // zero-length run
		cat(hdr(128), tok(3, runOne)),                       // run past the length
		cat(hdr(128), tok(2, 3)),                            // unknown kind
		cat(hdr(128), tok(2, literals), lit),                // truncated literals
		cat(hdr(128), tok(1, runZero)),                      // truncated stream
		hdr(maxRLEBits+1),                                   // length out of range
		cat(hdr(1<<63), tok(1, runZero)),                    // length past int
		[]byte{0x80},                                        // truncated header
		nil,
	)
	return out
}

// TestXorRLEMatchesDecode: the walk checkout and recovery use accepts
// exactly the encodings the reference decoder accepts, and XORs into a
// destination shorter, longer or as long as the encoded bitmap what
// Xor(dst, decoded) would.
func TestXorRLEMatchesDecode(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	fill := func(n int) *Bitmap {
		b := New(n)
		for i := 0; i < n; i += 1 + r.Intn(3) {
			b.Set(i)
		}
		return b
	}
	dsts := []*Bitmap{New(0), fill(70), fill(130), fill(20000)}
	for i, data := range rleCases() {
		for _, dst := range dsts {
			if msg := xorRLEMismatch(dst, data); msg != "" {
				t.Fatalf("case %d, dst of %d bits: %s", i, dst.Len(), msg)
			}
		}
	}
}

// FuzzXorRLE holds xorRLE to the reference decoder on arbitrary input
// and destination.
func FuzzXorRLE(f *testing.F) {
	for _, data := range rleCases() {
		f.Add(data, uint16(100), int64(1))
	}
	f.Fuzz(func(t *testing.T, data []byte, dstBits uint16, seed int64) {
		// The reference decoder allocates the length a header claims
		// before it reads a run: keep the claims this process can hold.
		if n, k := binary.Uvarint(data); k > 0 && n > 1<<20 && n <= maxRLEBits {
			t.Skip()
		}
		dst := randomBitmap(rand.New(rand.NewSource(seed)), int(dstBits)+1)
		if msg := xorRLEMismatch(dst, data); msg != "" {
			t.Fatal(msg)
		}
	})
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

// checkNewestReplays fails unless Checkout of cl's newest commit — a
// copy of the bitmap the log keeps in memory — equals want and the
// replay of that commit's deltas from the file.
func checkNewestReplays(t *testing.T, cl *CommitLog, want *Bitmap) {
	t.Helper()
	n := cl.NumCommits()
	got, err := cl.Checkout(n - 1)
	if err != nil {
		t.Fatalf("Checkout(%d): %v", n-1, err)
	}
	cl.mu.Lock()
	replay, err := cl.checkoutLocked(n - 1)
	cl.mu.Unlock()
	if err != nil {
		t.Fatalf("replay of commit %d: %v", n-1, err)
	}
	if !got.Equal(replay) || !got.Equal(want) {
		t.Fatalf("newest commit %d: Checkout %v, replay %v, want %v", n-1, got, replay, want)
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
		checkNewestReplays(t, cl, cur)
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
	checkNewestReplays(t, cl2, snaps[9])
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

// DecodeRLE is the reference decoder the tests hold xorRLE to: it
// decodes one RLE-encoded bitmap from the front of data into a new
// bitmap, returning it and the number of bytes consumed.
func DecodeRLE(data []byte) (*Bitmap, int, error) {
	nBits, pos := binary.Uvarint(data)
	if pos <= 0 {
		return nil, 0, errors.New("bitmap: truncated RLE header")
	}
	if nBits > maxRLEBits {
		return nil, 0, fmt.Errorf("bitmap: RLE length %d out of range", nBits)
	}
	need := wordsFor(int(nBits))
	words := make([]uint64, 0, need)
	for len(words) < need {
		tok, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return nil, 0, errors.New("bitmap: truncated RLE stream")
		}
		pos += n
		count := int(tok >> 2)
		if count == 0 || len(words)+count > need {
			return nil, 0, fmt.Errorf("bitmap: bad RLE run length %d", count)
		}
		switch tok & 3 {
		case runZero:
			for i := 0; i < count; i++ {
				words = append(words, 0)
			}
		case runOne:
			for i := 0; i < count; i++ {
				words = append(words, ^uint64(0))
			}
		case literals:
			if len(data[pos:]) < 8*count {
				return nil, 0, errors.New("bitmap: truncated RLE literals")
			}
			for i := 0; i < count; i++ {
				words = append(words, binary.LittleEndian.Uint64(data[pos:]))
				pos += 8
			}
		default:
			return nil, 0, fmt.Errorf("bitmap: bad RLE token kind %d", tok&3)
		}
	}
	b := &Bitmap{words: words, n: int(nBits)}
	b.clearTail()
	return b, pos, nil
}
