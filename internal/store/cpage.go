package store

// cpage.go is the page codec behind EncDCZ segment files. A page block
// holds up to perPage records transposed into per-plane columns: one
// plane per byte range of the record layout (the header byte and each
// column), each plane independently encoded with whichever of four
// encodings is smallest for its data (delta by at least a byte a row:
// encodePlane). Planes are self-describing —
// they carry their own byte offset and width — so the decoder needs no
// schema and can fully validate a block in isolation, which is what
// makes the format fuzzable: a torn or corrupted page must fail one of
// the structural checks, never silently misdecode.
//
// Page block layout (all integers little-endian):
//
//	u32 rows | u16 nplanes | nplanes × plane
//
// Plane layout:
//
//	u32 off | u32 width | u8 enc | u32 len | len bytes payload
//
// Plane encodings:
//
//	0 raw    payload is rows×width column bytes verbatim
//	1 const  payload is width bytes, replicated into every row
//	2 dict   u16 ndict | ndict×width values | rows × u8 index
//	3 delta  zigzag-varint deltas of the int64 values (width 8 only);
//	         the first varint is the absolute first value
import (
	"encoding/binary"
	"fmt"

	"decibel/internal/record"
)

const (
	cEncRaw   = 0
	cEncConst = 1
	cEncDict  = 2
	cEncDelta = 3

	// cDictMax caps dictionary size: indexes are one byte.
	cDictMax = 256
)

// cplane is one byte range of the record layout, encoded as a column.
type cplane struct {
	off, width int
}

// planesFor derives the plane tiling from a physical schema: the
// header byte, then one plane per column. NewSchema packs columns
// back-to-back after the header, so the planes tile the record exactly.
func planesFor(schema *record.Schema) []cplane {
	n := schema.NumColumns()
	ps := make([]cplane, 0, n+1)
	ps = append(ps, cplane{off: 0, width: record.HeaderSize})
	for i := 0; i < n; i++ {
		ps = append(ps, cplane{off: schema.ColumnOffset(i), width: schema.Column(i).Width()})
	}
	return ps
}

// encodePage compresses rows records stored back-to-back in data
// (rows*recSize bytes) into one page block, appended to dst.
func encodePage(dst []byte, data []byte, rows, recSize int, planes []cplane) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rows))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(planes)))
	col := make([]byte, 0, rows*8)
	for _, p := range planes {
		// Transpose the plane's bytes into a contiguous column.
		col = col[:0]
		for r := 0; r < rows; r++ {
			at := r*recSize + p.off
			col = append(col, data[at:at+p.width]...)
		}
		enc, payload := encodePlane(col, rows, p.width)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.off))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.width))
		dst = append(dst, enc)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
		dst = append(dst, payload...)
	}
	return dst
}

// encodePlane picks the smallest encoding for one transposed column of
// rows values of the given width, except that delta must be smaller by
// at least a byte a row: a reader takes a raw, const or dict plane's
// values in place, and must decode a delta plane's varints one by one
// (a grouped fold reads a delta column from the rows instead). col is
// reused by the caller; the returned payload aliases it only for
// cEncRaw, which the caller appends before the next plane overwrites
// it.
func encodePlane(col []byte, rows, width int) (byte, []byte) {
	bestEnc, best := byte(cEncRaw), col

	if p, ok := encodeConst(col, rows, width); ok && len(p) < len(best) {
		bestEnc, best = cEncConst, p
	}
	if p, ok := encodeDict(col, rows, width); ok && len(p) < len(best) {
		bestEnc, best = cEncDict, p
	}
	if width == 8 {
		if p := encodeDelta(col, rows); len(p)+rows <= len(best) {
			bestEnc, best = cEncDelta, p
		}
	}
	return bestEnc, best
}

func encodeConst(col []byte, rows, width int) ([]byte, bool) {
	first := col[:width]
	for r := 1; r < rows; r++ {
		if string(col[r*width:(r+1)*width]) != string(first) {
			return nil, false
		}
	}
	return first, true
}

func encodeDict(col []byte, rows, width int) ([]byte, bool) {
	if rows < 2 {
		return nil, false
	}
	idx := make(map[string]int, 16)
	var values []byte
	indexes := make([]byte, rows)
	for r := 0; r < rows; r++ {
		v := string(col[r*width : (r+1)*width])
		i, ok := idx[v]
		if !ok {
			i = len(idx)
			if i >= cDictMax {
				return nil, false
			}
			idx[v] = i
			values = append(values, v...)
		}
		indexes[r] = byte(i)
	}
	p := make([]byte, 0, 2+len(values)+rows)
	p = binary.LittleEndian.AppendUint16(p, uint16(len(idx)))
	p = append(p, values...)
	p = append(p, indexes...)
	return p, true
}

func encodeDelta(col []byte, rows int) []byte {
	p := make([]byte, 0, rows*2)
	prev := int64(0)
	for r := 0; r < rows; r++ {
		v := int64(binary.LittleEndian.Uint64(col[r*8 : (r+1)*8]))
		p = binary.AppendVarint(p, v-prev)
		prev = v
	}
	return p
}

// Page is one decoded page of a dcz file: its rows, record-major, and
// the planes the block stored them in, kept so that a reader can take a
// column of the page as the block encoded it. Core's plane pre-filter
// decides a predicate by the dict and const planes' distinct values
// before any row is touched, and a grouped fold reads its key and
// aggregate columns from the planes without visiting a row. The planes
// alias the page block, which the page keeps; a delta plane has no
// entry, so its column is read from Rows.
type Page struct {
	// Rows holds the page's records back to back, RecordSize bytes each.
	Rows []byte
	// Planes are the page's dict and const planes in record order.
	Planes []Plane
	// Raw are the page's raw planes in record order: each one's Values
	// holds every row's value, Width bytes each, in row order.
	Raw []Plane
	// block is the page block the planes point into.
	block []byte
}

// Plane is one dict-, const- or raw-encoded byte range of a page's
// records.
type Plane struct {
	Off, Width int
	// Values holds a dict or const plane's distinct values, Width bytes
	// each: one for a const plane, up to 256 for a dict plane. A raw
	// plane's holds every row's value (see Page.Raw).
	Values []byte
	// Codes holds, for a dict plane, row r's index into Values at
	// Codes[r]; a const or raw plane has none.
	Codes []byte
}

// Column returns the plane that stores the byte range [off, off+width)
// of the page's records, and whether it is a raw plane (Page.Raw); nil
// when no plane has exactly that range, as for a delta-encoded column.
func (p *Page) Column(off, width int) (pl *Plane, raw bool) {
	for i := range p.Planes {
		if p.Planes[i].Off == off && p.Planes[i].Width == width {
			return &p.Planes[i], false
		}
	}
	for i := range p.Raw {
		if p.Raw[i].Off == off && p.Raw[i].Width == width {
			return &p.Raw[i], true
		}
	}
	return nil, false
}

// Bytes returns the memory the page keeps resident: its rows and the
// page block its planes point into.
func (p *Page) Bytes() int64 {
	return int64(cap(p.Rows) + cap(p.block))
}

// decodePage decodes one page block into a freshly allocated
// rows*recSize record-major buffer. The page keeps blk, which its dict,
// const and raw planes point into: the caller must not reuse it. maxRows bounds the row count (perPage); wantRows,
// when >= 0, is the exact row count the caller expects from the file
// header. Every structural invariant is checked so corrupted input
// errors instead of misdecoding.
func decodePage(blk []byte, recSize, maxRows, wantRows int) (*Page, error) {
	if len(blk) < 6 {
		return nil, fmt.Errorf("dcz: page block truncated (%d bytes)", len(blk))
	}
	rows := int(binary.LittleEndian.Uint32(blk[0:4]))
	nplanes := int(binary.LittleEndian.Uint16(blk[4:6]))
	if rows <= 0 || rows > maxRows {
		return nil, fmt.Errorf("dcz: page rows %d out of range (1..%d)", rows, maxRows)
	}
	if wantRows >= 0 && rows != wantRows {
		return nil, fmt.Errorf("dcz: page has %d rows, want %d", rows, wantRows)
	}
	if nplanes == 0 {
		return nil, fmt.Errorf("dcz: page has no planes")
	}
	out := make([]byte, rows*recSize)
	pg := &Page{Rows: out, block: blk}
	blk = blk[6:]
	cur := 0 // next record byte offset a plane must cover
	for pi := 0; pi < nplanes; pi++ {
		if len(blk) < 13 {
			return nil, fmt.Errorf("dcz: plane %d header truncated", pi)
		}
		off := int(binary.LittleEndian.Uint32(blk[0:4]))
		width := int(binary.LittleEndian.Uint32(blk[4:8]))
		enc := blk[8]
		plen := int(binary.LittleEndian.Uint32(blk[9:13]))
		blk = blk[13:]
		if off != cur || width <= 0 || off+width > recSize {
			return nil, fmt.Errorf("dcz: plane %d at [%d,%d) breaks record tiling (at %d of %d)", pi, off, off+width, cur, recSize)
		}
		if plen < 0 || plen > len(blk) {
			return nil, fmt.Errorf("dcz: plane %d payload truncated (%d of %d bytes)", pi, len(blk), plen)
		}
		payload := blk[:plen]
		if err := decodePlane(out, enc, payload, rows, recSize, off, width); err != nil {
			return nil, fmt.Errorf("dcz: plane %d: %w", pi, err)
		}
		switch enc {
		case cEncRaw:
			pg.Raw = append(pg.Raw, Plane{Off: off, Width: width, Values: payload})
		case cEncConst:
			pg.Planes = append(pg.Planes, Plane{Off: off, Width: width, Values: payload})
		case cEncDict:
			ndict := int(binary.LittleEndian.Uint16(payload[0:2]))
			values := payload[2 : 2+ndict*width]
			pg.Planes = append(pg.Planes, Plane{Off: off, Width: width, Values: values, Codes: payload[2+ndict*width:]})
		}
		blk = blk[plen:]
		cur += width
	}
	if cur != recSize {
		return nil, fmt.Errorf("dcz: planes cover %d of %d record bytes", cur, recSize)
	}
	if len(blk) != 0 {
		return nil, fmt.Errorf("dcz: %d trailing bytes after last plane", len(blk))
	}
	return pg, nil
}

// decodePlane scatters one plane's payload into the record-major out
// buffer at the plane's byte range.
func decodePlane(out []byte, enc byte, payload []byte, rows, recSize, off, width int) error {
	switch enc {
	case cEncRaw:
		if len(payload) != rows*width {
			return fmt.Errorf("raw payload %d bytes, want %d", len(payload), rows*width)
		}
		for r := 0; r < rows; r++ {
			copy(out[r*recSize+off:], payload[r*width:(r+1)*width])
		}
	case cEncConst:
		if len(payload) != width {
			return fmt.Errorf("const payload %d bytes, want %d", len(payload), width)
		}
		for r := 0; r < rows; r++ {
			copy(out[r*recSize+off:], payload)
		}
	case cEncDict:
		if len(payload) < 2 {
			return fmt.Errorf("dict payload truncated")
		}
		ndict := int(binary.LittleEndian.Uint16(payload[0:2]))
		if ndict < 1 || ndict > cDictMax {
			return fmt.Errorf("dict size %d out of range", ndict)
		}
		if len(payload) != 2+ndict*width+rows {
			return fmt.Errorf("dict payload %d bytes, want %d", len(payload), 2+ndict*width+rows)
		}
		values := payload[2 : 2+ndict*width]
		indexes := payload[2+ndict*width:]
		for r := 0; r < rows; r++ {
			i := int(indexes[r])
			if i >= ndict {
				return fmt.Errorf("dict index %d out of range (%d values)", i, ndict)
			}
			copy(out[r*recSize+off:], values[i*width:(i+1)*width])
		}
	case cEncDelta:
		if width != 8 {
			return fmt.Errorf("delta encoding on width-%d plane", width)
		}
		prev := int64(0)
		for r := 0; r < rows; r++ {
			d, n := binary.Varint(payload)
			if n <= 0 {
				return fmt.Errorf("delta varint %d malformed", r)
			}
			payload = payload[n:]
			prev += d
			binary.LittleEndian.PutUint64(out[r*recSize+off:], uint64(prev))
		}
		if len(payload) != 0 {
			return fmt.Errorf("%d trailing bytes after deltas", len(payload))
		}
	default:
		return fmt.Errorf("unknown plane encoding %d", enc)
	}
	return nil
}
