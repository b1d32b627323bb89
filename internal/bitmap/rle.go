package bitmap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Word-aligned run-length encoding for bitmaps, used to compress the
// XOR deltas written to commit history files (Section 3.2: "the delta
// from the prior commit ... is RLE compressed and written to the end of
// the file").
//
// The encoding is a leading varint carrying the logical bit length,
// followed by a sequence of varint-prefixed tokens over 64-bit words
// until all ceil(n/64) words have been produced:
//
//	token = count<<2 | kind
//	kind 0: count all-zero words
//	kind 1: count all-one words
//	kind 2: count literal words follow (8 bytes each, little endian)
//
// Commit deltas are overwhelmingly sparse (a commit touches a window of
// recently inserted or updated tuples), so zero runs dominate and the
// on-disk commit history stays well under 1% of the data size, matching
// the storage overheads reported in Table 2.

const (
	runZero  = 0
	runOne   = 1
	literals = 2
)

// AppendRLE appends the RLE encoding of b to dst and returns the
// extended slice.
func AppendRLE(dst []byte, b *Bitmap) []byte {
	dst = binary.AppendUvarint(dst, uint64(b.n))
	words := b.words
	i := 0
	for i < len(words) {
		switch words[i] {
		case 0:
			j := i
			for j < len(words) && words[j] == 0 {
				j++
			}
			dst = binary.AppendUvarint(dst, uint64(j-i)<<2|runZero)
			i = j
		case ^uint64(0):
			j := i
			for j < len(words) && words[j] == ^uint64(0) {
				j++
			}
			dst = binary.AppendUvarint(dst, uint64(j-i)<<2|runOne)
			i = j
		default:
			j := i
			for j < len(words) && words[j] != 0 && words[j] != ^uint64(0) {
				j++
			}
			dst = binary.AppendUvarint(dst, uint64(j-i)<<2|literals)
			for ; i < j; i++ {
				dst = binary.LittleEndian.AppendUint64(dst, words[i])
			}
		}
	}
	return dst
}

// MarshalRLE returns the RLE encoding of b.
func MarshalRLE(b *Bitmap) []byte { return AppendRLE(nil, b) }

// xorRLE XORs the RLE-encoded bitmap at the front of data into dst —
// dst.Xor of its decoding, without the decoded copy — and returns the
// number of bytes consumed. Zero runs are skipped; a nil dst only
// validates. It rejects a truncated or out-of-range header, a
// truncated token stream, a run of zero words or one past the encoded
// length, an unknown token kind and truncated literals. On error dst
// may hold part of the payload.
func xorRLE(dst *Bitmap, data []byte) (int, error) {
	nBits, pos := binary.Uvarint(data)
	if pos <= 0 {
		return 0, errors.New("bitmap: truncated RLE header")
	}
	if nBits > maxRLEBits {
		return 0, fmt.Errorf("bitmap: RLE length %d out of range", nBits)
	}
	n := int(nBits)
	need := wordsFor(n)
	var words []uint64
	if dst != nil {
		if n > dst.n {
			dst.Resize(n)
		}
		words = dst.words
	}
	tail := ^uint64(0) // the bits of the last word inside the length
	if r := n % wordBits; r != 0 {
		tail = 1<<uint(r) - 1
	}
	for w := 0; w < need; {
		tok, k := binary.Uvarint(data[pos:])
		if k <= 0 {
			return 0, errors.New("bitmap: truncated RLE stream")
		}
		pos += k
		count := int(tok >> 2)
		if count == 0 || count > need-w {
			return 0, fmt.Errorf("bitmap: bad RLE run length %d", count)
		}
		kind := tok & 3
		switch kind {
		case runZero:
		case runOne, literals:
			if kind == literals && len(data[pos:]) < 8*count {
				return 0, errors.New("bitmap: truncated RLE literals")
			}
			for i := w; i < w+count; i++ {
				v := ^uint64(0)
				if kind == literals {
					v = binary.LittleEndian.Uint64(data[pos:])
					pos += 8
				}
				if i == need-1 {
					v &= tail
				}
				if words != nil {
					words[i] ^= v
				}
			}
		default:
			return 0, fmt.Errorf("bitmap: bad RLE token kind %d", kind)
		}
		w += count
	}
	return pos, nil
}

// maxRLEBits is the largest bit length a header may carry: one whose
// word count still fits in an int.
const maxRLEBits = math.MaxInt - (wordBits - 1)
