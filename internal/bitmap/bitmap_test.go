package bitmap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetGetClear(t *testing.T) {
	b := New(0)
	if b.Len() != 0 || b.Any() {
		t.Fatalf("new bitmap not empty: len=%d any=%v", b.Len(), b.Any())
	}
	b.Set(5)
	if !b.Get(5) {
		t.Fatal("bit 5 not set")
	}
	if b.Len() != 6 {
		t.Fatalf("len = %d, want 6", b.Len())
	}
	if b.Get(4) || b.Get(6) {
		t.Fatal("neighbouring bits set")
	}
	b.Clear(5)
	if b.Get(5) {
		t.Fatal("bit 5 still set after clear")
	}
	b.Clear(1000) // out of range: no-op
	if b.Len() != 6 {
		t.Fatalf("clear grew bitmap to %d", b.Len())
	}
}

func TestSetGrowsAcrossWords(t *testing.T) {
	b := New(0)
	for _, i := range []int{0, 63, 64, 127, 128, 1000} {
		b.Set(i)
	}
	for _, i := range []int{0, 63, 64, 127, 128, 1000} {
		if !b.Get(i) {
			t.Errorf("bit %d lost after growth", i)
		}
	}
	if got := b.Count(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
}

func TestSetToAndNegativePanics(t *testing.T) {
	b := New(10)
	b.SetTo(3, true)
	if !b.Get(3) {
		t.Fatal("SetTo true failed")
	}
	b.SetTo(3, false)
	if b.Get(3) {
		t.Fatal("SetTo false failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Set(-1) did not panic")
		}
	}()
	b.Set(-1)
}

func TestResizeShrinkClearsBits(t *testing.T) {
	b := New(128)
	b.Set(100)
	b.Set(10)
	b.Resize(50)
	b.Resize(128)
	if b.Get(100) {
		t.Fatal("bit 100 survived shrink")
	}
	if !b.Get(10) {
		t.Fatal("bit 10 lost by resize")
	}
}

func TestResizeShrinkClearsTailWithinWord(t *testing.T) {
	b := New(64)
	b.Set(63)
	b.Set(62)
	b.Resize(63)
	if b.Get(63) {
		t.Fatal("bit 63 visible after shrink to 63")
	}
	if b.Count() != 1 {
		t.Fatalf("count = %d, want 1", b.Count())
	}
	b.Resize(64)
	if b.Get(63) {
		t.Fatal("stale bit re-exposed by grow")
	}
}

func TestBooleanOps(t *testing.T) {
	a := New(0)
	b := New(0)
	for _, i := range []int{1, 3, 5, 200} {
		a.Set(i)
	}
	for _, i := range []int{3, 5, 7} {
		b.Set(i)
	}
	if got := And(a, b).Slots(); !equalInts(got, []int{3, 5}) {
		t.Errorf("and = %v", got)
	}
	if got := Or(a, b).Slots(); !equalInts(got, []int{1, 3, 5, 7, 200}) {
		t.Errorf("or = %v", got)
	}
	if got := Xor(a, b).Slots(); !equalInts(got, []int{1, 7, 200}) {
		t.Errorf("xor = %v", got)
	}
	andNot := a.Clone()
	andNot.AndNot(b)
	if got := andNot.Slots(); !equalInts(got, []int{1, 200}) {
		t.Errorf("and not = %v", got)
	}
	shortNot := b.Clone()
	shortNot.AndNot(a) // a's words past b's end take nothing away
	if got := shortNot.Slots(); !equalInts(got, []int{7}) {
		t.Errorf("and not (shorter) = %v", got)
	}
}

func TestEqualDifferentLengths(t *testing.T) {
	a := New(10)
	b := New(1000)
	a.Set(3)
	b.Set(3)
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("logically equal bitmaps reported unequal")
	}
	b.Set(999)
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("unequal bitmaps reported equal")
	}
}

func TestNextSet(t *testing.T) {
	b := New(0)
	for _, i := range []int{2, 64, 130} {
		b.Set(i)
	}
	cases := [][2]int{{0, 2}, {2, 2}, {3, 64}, {64, 64}, {65, 130}, {130, 130}, {131, -1}, {-5, 2}, {10000, -1}}
	for _, c := range cases {
		if got := b.NextSet(c[0]); got != c[1] {
			t.Errorf("NextSet(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

func TestForEachEarlyStop(t *testing.T) {
	b := New(0)
	for i := 0; i < 100; i += 2 {
		b.Set(i)
	}
	seen := 0
	b.ForEach(func(i int) bool {
		seen++
		return seen < 10
	})
	if seen != 10 {
		t.Fatalf("early stop visited %d bits", seen)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(0)
	a.Set(7)
	c := a.Clone()
	c.Set(9)
	if a.Get(9) {
		t.Fatal("clone aliases parent")
	}
}

func randomBitmap(r *rand.Rand, maxLen int) *Bitmap {
	n := r.Intn(maxLen)
	b := New(n)
	for i := 0; i < n; i++ {
		if r.Intn(3) == 0 {
			b.Set(i)
		}
	}
	return b
}

// Property: XOR is its own inverse — (a XOR b) XOR b == a.
func TestQuickXorInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomBitmap(r, 600)
		b := randomBitmap(r, 600)
		x := Xor(a, b)
		x.Xor(b)
		return x.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan on finite domain — count(a OR b) + count(a AND b)
// == count(a) + count(b).
func TestQuickInclusionExclusion(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomBitmap(r, 600)
		b := randomBitmap(r, 600)
		return Or(a, b).Count()+And(a, b).Count() == a.Count()+b.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkBitmapSet(b *testing.B) {
	bm := New(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bm.Set(i & (1<<20 - 1))
	}
}

func BenchmarkBitmapXor(b *testing.B) {
	x := New(1 << 20)
	y := New(1 << 20)
	for i := 0; i < 1<<20; i += 3 {
		x.Set(i)
	}
	for i := 0; i < 1<<20; i += 5 {
		y.Set(i)
	}
	b.ReportAllocs()
	b.SetBytes(1 << 17)
	for i := 0; i < b.N; i++ {
		x.Xor(y)
	}
}

func BenchmarkBitmapNextSetSparse(b *testing.B) {
	bm := New(1 << 20)
	for i := 0; i < 1<<20; i += 4096 {
		bm.Set(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := bm.NextSet(0); j >= 0; j = bm.NextSet(j + 1) {
		}
	}
}

// Property: Gather equals one SetTo of Get per column, nil columns and
// columns shorter than the bit index reading as zero, and clears bits a
// previous row set.
func TestQuickGatherVsGet(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cols := make([]*Bitmap, 1+r.Intn(130))
		for j := range cols {
			if r.Intn(5) == 0 {
				continue
			}
			cols[j] = New(r.Intn(200))
			for i := 0; i < cols[j].Len(); i++ {
				cols[j].SetTo(i, r.Intn(2) == 0)
			}
		}
		got := New(len(cols))
		for i := 0; i < 210; i++ {
			got.Gather(cols, i)
			want := New(len(cols))
			for j, c := range cols {
				want.SetTo(j, c != nil && c.Get(i))
			}
			if !got.Equal(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
