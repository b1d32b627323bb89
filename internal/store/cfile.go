package store

// cfile.go is the EncDCZ segment file: a frozen, read-optimized
// container of fixed-width records compressed page by page with the
// cpage codec. Compaction writes one with a CompressedWriter and
// swaps it into the catalog under a fresh filename; from then on the
// segment is immutable — Append always errors, Truncate only lowers
// the logical record count (version-first re-clamps to the catalog's
// SafeCount on every open), and Freeze/Sync/Flush are no-ops.
//
// File layout (little-endian):
//
//	header  "DCZ1" | u32 recSize | u32 perPage | u64 count |
//	        u32 npages | u32 crc(first 24 bytes)
//	index   npages × (u64 off | u32 len | u32 crc) | u32 crc(entries)
//	pages   page blocks (cpage.go) at their absolute offsets
//
// Pages decode lazily on first touch and are cached decoded — rows
// plus the page block their dict, const and raw planes point into
// (Page) — via atomic pointers, so concurrent scans share the work without a lock.
// Every read path re-validates CRCs and the block structure; a torn
// or corrupted file surfaces as an error, never as wrong records.

import (
	"encoding/binary"
	"expvar"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"sync/atomic"

	"decibel/internal/record"
)

// pageDecodes counts compressed pages decoded across every open file;
// the cache makes repeat scans of the same page free, which this
// counter makes observable.
var pageDecodes = expvar.NewInt("decibel.compressed_page_decodes")

const (
	dczMagic      = "DCZ1"
	dczHeaderSize = 4 + 4 + 4 + 8 + 4 + 4
	dczIndexEntry = 8 + 4 + 4
)

type cIndexEntry struct {
	off int64
	len uint32
	crc uint32
}

// CompressedWriter accumulates records and writes them out as one
// .dcz file. Records must arrive in final slot order; the writer cuts
// a page every perPage records and encodes it immediately.
type CompressedWriter struct {
	recSize int
	perPage int
	planes  []cplane
	pending []byte
	rows    int
	pages   []byte
	index   []cIndexEntry
	count   int64
}

// NewCompressedWriter returns a writer for records of the given
// physical schema, perPage records per compressed page.
func NewCompressedWriter(schema *record.Schema, perPage int) *CompressedWriter {
	if perPage < 1 {
		perPage = 1
	}
	return &CompressedWriter{
		recSize: schema.RecordSize(),
		perPage: perPage,
		planes:  planesFor(schema),
	}
}

// Count returns the number of records appended so far.
func (w *CompressedWriter) Count() int64 { return w.count }

// Append adds one encoded record.
func (w *CompressedWriter) Append(rec []byte) error {
	if len(rec) != w.recSize {
		return fmt.Errorf("dcz: record is %d bytes, want %d", len(rec), w.recSize)
	}
	w.pending = append(w.pending, rec...)
	w.rows++
	w.count++
	if w.rows == w.perPage {
		w.flushPage()
	}
	return nil
}

func (w *CompressedWriter) flushPage() {
	if w.rows == 0 {
		return
	}
	start := len(w.pages)
	w.pages = encodePage(w.pages, w.pending, w.rows, w.recSize, w.planes)
	blk := w.pages[start:]
	w.index = append(w.index, cIndexEntry{
		off: int64(start), // relative to data start; made absolute in WriteFile
		len: uint32(len(blk)),
		crc: crc32.ChecksumIEEE(blk),
	})
	w.pending = w.pending[:0]
	w.rows = 0
}

// WriteFile assembles the file and writes it to path with an fsync.
// The caller renames it into place (crash-safety lives in the
// catalog-swap protocol, not here).
func (w *CompressedWriter) WriteFile(path string) error {
	w.flushPage()
	dataStart := int64(dczHeaderSize + len(w.index)*dczIndexEntry + 4)

	buf := make([]byte, 0, int(dataStart)+len(w.pages))
	buf = append(buf, dczMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(w.recSize))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(w.perPage))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(w.count))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(w.index)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))

	idxStart := len(buf)
	for _, e := range w.index {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.off+dataStart))
		buf = binary.LittleEndian.AppendUint32(buf, e.len)
		buf = binary.LittleEndian.AppendUint32(buf, e.crc)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[idxStart:]))
	buf = append(buf, w.pages...)

	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// CompressedFile is the read side, implementing SegFile.
type CompressedFile struct {
	path     string
	f        *os.File
	recSize  int
	perPage  int
	total    int64 // records physically in the file
	fileSize int64
	index    []cIndexEntry
	cache    []atomic.Pointer[Page]

	mu    sync.Mutex
	count int64 // logical count, <= total (lowered by Truncate)
}

// OpenCompressed opens and validates a .dcz file. The header and page
// index are read eagerly and checksummed; page payloads stay on disk
// until a scan touches them.
func OpenCompressed(path string) (*CompressedFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	c, err := readCompressed(f, path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("dcz: %s: %w", path, err)
	}
	return c, nil
}

func readCompressed(f *os.File, path string) (*CompressedFile, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	fileSize := st.Size()
	if fileSize < dczHeaderSize {
		return nil, fmt.Errorf("file too short (%d bytes)", fileSize)
	}
	hdr := make([]byte, dczHeaderSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, err
	}
	if string(hdr[:4]) != dczMagic {
		return nil, fmt.Errorf("bad magic %q", hdr[:4])
	}
	if crc32.ChecksumIEEE(hdr[:dczHeaderSize-4]) != binary.LittleEndian.Uint32(hdr[dczHeaderSize-4:]) {
		return nil, fmt.Errorf("header checksum mismatch")
	}
	recSize := int(binary.LittleEndian.Uint32(hdr[4:8]))
	perPage := int(binary.LittleEndian.Uint32(hdr[8:12]))
	count := int64(binary.LittleEndian.Uint64(hdr[12:20]))
	npages := int(binary.LittleEndian.Uint32(hdr[20:24]))
	if recSize <= 0 || perPage <= 0 || count < 0 {
		return nil, fmt.Errorf("bad geometry: recSize=%d perPage=%d count=%d", recSize, perPage, count)
	}
	wantPages := int((count + int64(perPage) - 1) / int64(perPage))
	if npages != wantPages {
		return nil, fmt.Errorf("%d pages for %d records of %d/page, want %d", npages, count, perPage, wantPages)
	}
	idxSize := int64(npages)*dczIndexEntry + 4
	dataStart := dczHeaderSize + idxSize
	if fileSize < dataStart {
		return nil, fmt.Errorf("file too short for %d-page index", npages)
	}
	idxBuf := make([]byte, idxSize)
	if _, err := f.ReadAt(idxBuf, dczHeaderSize); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(idxBuf[:idxSize-4]) != binary.LittleEndian.Uint32(idxBuf[idxSize-4:]) {
		return nil, fmt.Errorf("page index checksum mismatch")
	}
	index := make([]cIndexEntry, npages)
	at := dataStart
	for i := range index {
		e := idxBuf[i*dczIndexEntry:]
		index[i] = cIndexEntry{
			off: int64(binary.LittleEndian.Uint64(e[0:8])),
			len: binary.LittleEndian.Uint32(e[8:12]),
			crc: binary.LittleEndian.Uint32(e[12:16]),
		}
		if index[i].off != at || int64(index[i].len) > fileSize-at {
			return nil, fmt.Errorf("page %d at [%d,+%d) breaks file layout", i, index[i].off, index[i].len)
		}
		at += int64(index[i].len)
	}
	if at != fileSize {
		return nil, fmt.Errorf("%d trailing bytes after last page", fileSize-at)
	}
	return &CompressedFile{
		path:     path,
		f:        f,
		recSize:  recSize,
		perPage:  perPage,
		total:    count,
		count:    count,
		fileSize: fileSize,
		index:    index,
		cache:    make([]atomic.Pointer[Page], npages),
	}, nil
}

// Page returns page i decoded — its rows record-major, and its dict,
// const and raw planes — decoding and caching it on first touch. The page
// is shared and read-only.
func (c *CompressedFile) Page(i int) (*Page, error) {
	if p := c.cache[i].Load(); p != nil {
		return p, nil
	}
	e := c.index[i]
	raw := make([]byte, e.len)
	if _, err := c.f.ReadAt(raw, e.off); err != nil {
		return nil, fmt.Errorf("dcz: %s: page %d: %w", c.path, i, err)
	}
	if crc32.ChecksumIEEE(raw) != e.crc {
		return nil, fmt.Errorf("dcz: %s: page %d checksum mismatch", c.path, i)
	}
	wantRows := c.perPage
	if i == len(c.index)-1 {
		wantRows = int(c.total - int64(i)*int64(c.perPage))
	}
	dec, err := decodePage(raw, c.recSize, c.perPage, wantRows)
	if err != nil {
		return nil, fmt.Errorf("dcz: %s: page %d: %w", c.path, i, err)
	}
	pageDecodes.Add(1)
	// Concurrent first touches may both decode; the first stored wins,
	// so the cache holds one copy of every page.
	if !c.cache[i].CompareAndSwap(nil, dec) {
		return c.cache[i].Load(), nil
	}
	return dec, nil
}

// CachedBytes returns the memory the decoded-page cache keeps resident:
// every cached page's rows and page block (Page.Bytes).
func (c *CompressedFile) CachedBytes() int64 {
	var n int64
	for i := range c.cache {
		if p := c.cache[i].Load(); p != nil {
			n += p.Bytes()
		}
	}
	return n
}

// Path returns the file's path.
func (c *CompressedFile) Path() string { return c.path }

// Count returns the logical record count.
func (c *CompressedFile) Count() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// RecordSize returns the fixed record size in bytes.
func (c *CompressedFile) RecordSize() int { return c.recSize }

// SizeBytes returns the logical (uncompressed) data size.
func (c *CompressedFile) SizeBytes() int64 {
	return c.Count() * int64(c.recSize)
}

// DiskBytes returns the compressed on-disk footprint.
func (c *CompressedFile) DiskBytes() int64 { return c.fileSize }

// PerPage returns records per compressed page.
func (c *CompressedFile) PerPage() int { return c.perPage }

// Freeze is a no-op: a compressed file is born frozen.
func (c *CompressedFile) Freeze() {}

// Append always fails: compressed segments are immutable.
func (c *CompressedFile) Append(rec []byte) (int64, error) {
	return 0, fmt.Errorf("dcz: %s: append to compressed segment", c.path)
}

// Read copies the record at slot into dst.
func (c *CompressedFile) Read(slot int64, dst []byte) error {
	if len(dst) != c.recSize {
		return fmt.Errorf("dcz: dst is %d bytes, want %d", len(dst), c.recSize)
	}
	count := c.Count()
	if slot < 0 || slot >= count {
		return fmt.Errorf("dcz: slot %d out of range [0,%d)", slot, count)
	}
	p, err := c.Page(int(slot / int64(c.perPage)))
	if err != nil {
		return err
	}
	idx := int(slot % int64(c.perPage))
	copy(dst, p.Rows[idx*c.recSize:(idx+1)*c.recSize])
	return nil
}

// Scan calls fn for each slot in [from, to), clamped to the logical
// count. The rec slice aliases the decoded page cache and is only
// valid during the callback, same contract as heap.File.Scan.
func (c *CompressedFile) Scan(from, to int64, fn func(slot int64, rec []byte) bool) error {
	count := c.Count()
	if to > count {
		to = count
	}
	if from < 0 {
		from = 0
	}
	per := int64(c.perPage)
	for slot := from; slot < to; {
		pg, err := c.Page(int(slot / per))
		if err != nil {
			return err
		}
		p := pg.Rows
		end := (slot/per + 1) * per
		if end > to {
			end = to
		}
		for ; slot < end; slot++ {
			idx := int(slot % per)
			if !fn(slot, p[idx*c.recSize:(idx+1)*c.recSize]) {
				return nil
			}
		}
	}
	return nil
}

// Truncate lowers the logical record count without touching the file.
// The version-first engine re-clamps every segment to the catalog's
// SafeCount on open; for a frozen compressed segment that is always
// its full count, so nothing is ever physically discarded.
func (c *CompressedFile) Truncate(n int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 0 || n > c.count {
		return fmt.Errorf("dcz: truncate to %d out of range [0,%d]", n, c.count)
	}
	c.count = n
	return nil
}

// Sync is a no-op: the file was fsynced when written and never
// changes after.
func (c *CompressedFile) Sync() error { return nil }

// Flush is a no-op: there is no dirty state.
func (c *CompressedFile) Flush() error { return nil }

// Close releases the file handle.
func (c *CompressedFile) Close() error { return c.f.Close() }
