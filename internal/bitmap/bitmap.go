// Package bitmap provides the dense bitmap kernel used by Decibel's
// tuple-first and hybrid storage engines, together with the run-length
// encoded XOR-delta commit history encoding described in Section 3.2 of
// the paper.
//
// A Bitmap is a growable, dense bitset addressed by a non-negative bit
// index. The tuple-first engine keeps one Bitmap per branch (the
// branch-oriented layout of Section 3.1). The hybrid engine keeps one
// small Bitmap per (segment, version) pair plus a global
// branch-to-segment Bitmap.
package bitmap

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Bitmap is a dense, growable bitset. The zero value is an empty bitmap
// ready for use. Bit indices beyond the current length read as zero;
// Set grows the bitmap automatically using capacity doubling so that a
// branch bitmap can be extended one record at a time in amortized O(1),
// as required for the per-insert index maintenance in Section 3.2.
type Bitmap struct {
	words []uint64
	n     int // logical length in bits
}

// New returns a bitmap with the given logical length in bits, all zero.
func New(n int) *Bitmap {
	if n < 0 {
		panic("bitmap: negative length")
	}
	return &Bitmap{words: make([]uint64, wordsFor(n)), n: n}
}

func wordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// Len returns the logical length of the bitmap in bits.
func (b *Bitmap) Len() int { return b.n }

// Resize sets the logical length to n bits, zeroing any newly exposed
// bits. Shrinking clears the bits beyond the new length so a later grow
// re-exposes zeros.
func (b *Bitmap) Resize(n int) {
	if n < 0 {
		panic("bitmap: negative length")
	}
	nw := wordsFor(n)
	if nw > cap(b.words) {
		grown := make([]uint64, nw, max(nw, 2*cap(b.words)))
		copy(grown, b.words)
		b.words = grown
	} else {
		old := len(b.words)
		b.words = b.words[:nw]
		for i := old; i < nw; i++ {
			b.words[i] = 0
		}
	}
	b.n = n
	b.clearTail()
}

// clearTail zeroes the bits of the final word beyond the logical length.
func (b *Bitmap) clearTail() {
	if r := b.n % wordBits; r != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(r)) - 1
	}
}

// Set sets bit i to one, growing the bitmap if i is out of range.
func (b *Bitmap) Set(i int) {
	if i < 0 {
		panic("bitmap: negative index")
	}
	if i >= b.n {
		b.Resize(i + 1)
	}
	b.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear sets bit i to zero. Clearing beyond the length is a no-op.
func (b *Bitmap) Clear(i int) {
	if i < 0 {
		panic("bitmap: negative index")
	}
	if i >= b.n {
		return
	}
	b.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// SetTo sets bit i to v.
func (b *Bitmap) SetTo(i int, v bool) {
	if v {
		b.Set(i)
	} else {
		b.Clear(i)
	}
}

// Get reports whether bit i is set. Indices beyond the length are zero.
func (b *Bitmap) Get(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Word returns bits [i, i+64) as one word, bit k holding bit i+k; bits
// at or past the length read as zero. A walk combines it with other
// per-slot masks 64 slots at a time.
func (b *Bitmap) Word(i int) uint64 {
	if i < 0 || i >= b.n {
		return 0
	}
	wi, s := i/wordBits, uint(i%wordBits)
	w := b.words[wi] >> s
	if s != 0 && wi+1 < len(b.words) {
		w |= b.words[wi+1] << (wordBits - s)
	}
	if rest := b.n - i; rest < wordBits {
		w &= 1<<uint(rest) - 1
	}
	return w
}

// Gather sets bit j of b, for every j < len(cols), to bit i of cols[j]
// (a nil column reads as zero) and clears b's other bits: the row of a
// column-per-version layout. b must be at least len(cols) bits long.
func (b *Bitmap) Gather(cols []*Bitmap, i int) {
	clear(b.words)
	w, bit := i/wordBits, uint(i%wordBits)
	for j, c := range cols {
		if c != nil && w < len(c.words) && c.words[w]>>bit&1 != 0 {
			b.words[j/wordBits] |= 1 << uint(j%wordBits)
		}
	}
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
func (b *Bitmap) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Clone returns a deep copy. This is the "simple memory copy" used to
// create a child branch's bitmap from its parent in Section 3.2.
func (b *Bitmap) Clone() *Bitmap {
	nb := &Bitmap{words: make([]uint64, len(b.words)), n: b.n}
	copy(nb.words, b.words)
	return nb
}

// Equal reports whether the two bitmaps have identical logical contents.
// Bitmaps of different lengths are equal if all bits beyond the shorter
// length are zero in the longer one.
func (b *Bitmap) Equal(other *Bitmap) bool {
	long, short := b.words, other.words
	if len(short) > len(long) {
		long, short = short, long
	}
	for i, w := range short {
		if w != long[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// align grows b so that it has at least as many words as other,
// preserving logical length semantics for binary operations.
func (b *Bitmap) align(other *Bitmap) {
	if other.n > b.n {
		b.Resize(other.n)
	}
}

// And replaces b with b AND other.
func (b *Bitmap) And(other *Bitmap) {
	n := min(len(b.words), len(other.words))
	for i := 0; i < n; i++ {
		b.words[i] &= other.words[i]
	}
	for i := n; i < len(b.words); i++ {
		b.words[i] = 0
	}
}

// AndNot replaces b with b AND NOT other: the bits of b that other
// does not set.
func (b *Bitmap) AndNot(other *Bitmap) {
	n := min(len(b.words), len(other.words))
	for i := 0; i < n; i++ {
		b.words[i] &^= other.words[i]
	}
}

// Or replaces b with b OR other, growing b if needed.
func (b *Bitmap) Or(other *Bitmap) {
	b.align(other)
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// Xor replaces b with b XOR other, growing b if needed. XOR against a
// prior commit snapshot yields the commit delta stored in the commit
// history files (Section 3.2).
func (b *Bitmap) Xor(other *Bitmap) {
	b.align(other)
	for i, w := range other.words {
		b.words[i] ^= w
	}
}

// And returns a new bitmap a AND b without modifying the inputs.
func And(a, c *Bitmap) *Bitmap { r := a.Clone(); r.And(c); return r }

// Or returns a new bitmap a OR b without modifying the inputs.
func Or(a, c *Bitmap) *Bitmap { r := a.Clone(); r.Or(c); return r }

// Xor returns a new bitmap a XOR b without modifying the inputs.
func Xor(a, c *Bitmap) *Bitmap { r := a.Clone(); r.Xor(c); return r }

// NextSet returns the index of the first set bit at or after i, or -1 if
// none exists. It is the building block for branch scans that emit all
// records whose bit is set in a branch's bitmap.
func (b *Bitmap) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= b.n {
		return -1
	}
	wi := i / wordBits
	w := b.words[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b.words); wi++ {
		if b.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(b.words[wi])
		}
	}
	return -1
}

// ForEach calls fn for every set bit in ascending order. If fn returns
// false, iteration stops early.
func (b *Bitmap) ForEach(fn func(i int) bool) {
	for wi, w := range b.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + tz) {
				return
			}
			w &= w - 1
		}
	}
}

// Slots returns the indices of all set bits.
func (b *Bitmap) Slots() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(i int) bool { out = append(out, i); return true })
	return out
}

// String renders a short debug form like "{1, 5, 9}".
func (b *Bitmap) String() string {
	s := "{"
	first := true
	b.ForEach(func(i int) bool {
		if !first {
			s += ", "
		}
		first = false
		s += fmt.Sprint(i)
		return true
	})
	return s + "}"
}
