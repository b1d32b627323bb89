// Package heap implements Decibel's paged heap-file layer: append-only
// files of fixed-size records read and written through a shared buffer
// pool, mirroring the "fairly conventional buffer pool architecture
// (with 4 MB pages)" of Section 2.1. Every storage engine stores its
// tuple payloads in heap files from this package: tuple-first uses one
// shared file, version-first and hybrid use one segment file per
// branch.
package heap

import (
	"container/list"
	"fmt"
	"os"
	"sync"
)

// DefaultPageSize is the paper's 4 MB page size.
const DefaultPageSize = 4 << 20

// pageKey identifies a page within the pool across all files.
type pageKey struct {
	file uint64
	page int64
}

// frame is one resident page.
type frame struct {
	key   pageKey
	data  []byte
	size  int // valid bytes (the final page of a file may be partial)
	dirty bool
	// from is the first byte written since the frame was last clean.
	// Pages are append-only, so data[from:size] is all a write-back
	// has to write.
	from  int
	pins  int
	lru   *list.Element
	owner *File
}

// Pool is a shared buffer pool with LRU replacement and pin counting.
// All methods are safe for concurrent use.
type Pool struct {
	mu       sync.Mutex
	pageSize int
	capacity int
	frames   map[pageKey]*frame
	lru      *list.List // unpinned frames, front = most recent
	nextFile uint64

	// Statistics.
	hits, misses, evictions int64
}

// NewPool creates a pool holding up to capacity pages of pageSize
// bytes. pageSize <= 0 selects DefaultPageSize; capacity <= 0 selects a
// small default suitable for tests.
func NewPool(capacity, pageSize int) *Pool {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	if capacity <= 0 {
		capacity = 64
	}
	return &Pool{
		pageSize: pageSize,
		capacity: capacity,
		frames:   make(map[pageKey]*frame),
		lru:      list.New(),
	}
}

// PageSize returns the pool's page size in bytes.
func (p *Pool) PageSize() int { return p.pageSize }

// Stats returns cumulative hit/miss/eviction counters.
func (p *Pool) Stats() (hits, misses, evictions int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses, p.evictions
}

// get returns the pinned frame for (f, page), reading it from disk on a
// miss. create indicates the page is being appended and may not exist
// on disk yet.
func (p *Pool) get(f *File, page int64, create bool) (*frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := pageKey{file: f.poolID, page: page}
	if fr, ok := p.frames[key]; ok {
		p.hits++
		if fr.pins == 0 && fr.lru != nil {
			p.lru.Remove(fr.lru)
			fr.lru = nil
		}
		fr.pins++
		return fr, nil
	}
	p.misses++
	if err := p.evictLocked(); err != nil {
		return nil, err
	}
	fr := &frame{key: key, data: make([]byte, p.pageSize), pins: 1, owner: f}
	off := page * int64(p.pageSize)
	n, err := f.f.ReadAt(fr.data, off)
	if err != nil && n == 0 && !create {
		return nil, fmt.Errorf("heap: reading page %d of %s: %w", page, f.path, err)
	}
	fr.size = n
	p.frames[key] = fr
	return fr, nil
}

// evictLocked makes room for one more frame if the pool is full.
func (p *Pool) evictLocked() error {
	for len(p.frames) >= p.capacity {
		el := p.lru.Back()
		if el == nil {
			// Every frame is pinned; allow temporary over-subscription
			// rather than deadlocking. This matches the usual steal
			// policy for scan-heavy workloads.
			return nil
		}
		fr := el.Value.(*frame)
		p.lru.Remove(el)
		fr.lru = nil
		if fr.dirty {
			if err := fr.owner.writePage(fr); err != nil {
				return err
			}
		}
		delete(p.frames, fr.key)
		p.evictions++
	}
	return nil
}

// unpin releases one pin on the frame.
func (p *Pool) unpin(fr *frame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fr.pins--
	if fr.pins < 0 {
		panic("heap: unpin without pin")
	}
	if fr.pins == 0 {
		fr.lru = p.lru.PushFront(fr)
	}
}

// dropFile removes all of one file's pages from the pool without
// writing them back (used by Close after flush, and by delete).
func (p *Pool) dropFile(f *File) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for key, fr := range p.frames {
		if key.file == f.poolID {
			if fr.lru != nil {
				p.lru.Remove(fr.lru)
			}
			delete(p.frames, key)
		}
	}
}

// File is an append-only heap file of fixed-size records. Records never
// straddle page boundaries: each page holds floor(pageSize/recordSize)
// record slots, so slot s lives on page s/perPage. (The paper's 4 MB
// pages divide evenly by its 1 KB records; for other sizes the final
// partial slot of each page is padding.)
type File struct {
	mu      sync.Mutex
	pool    *Pool
	path    string
	f       *os.File
	poolID  uint64
	recSize int
	perPage int
	count   int64 // number of records, including any tombstones
	frozen  bool  // appends rejected (hybrid internal segments freeze)
	// dirtyFrom is the first page appended to since the last flush, -1
	// when there is none: a flush looks up only the pages from there to
	// the end, so flushing a clean file costs nothing.
	dirtyFrom int64
}

// Open opens or creates the heap file at path with the given record
// size, attaching it to the pool. The record count is recovered from
// the file length; a torn trailing record is ignored.
func Open(pool *Pool, path string, recSize int) (*File, error) {
	if recSize <= 0 || recSize > pool.pageSize {
		return nil, fmt.Errorf("heap: record size %d invalid for page size %d", recSize, pool.pageSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("heap: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("heap: %w", err)
	}
	perPage := pool.pageSize / recSize
	size := st.Size()
	fullPages := size / int64(pool.pageSize)
	tail := size % int64(pool.pageSize)
	count := fullPages*int64(perPage) + tail/int64(recSize)
	pool.mu.Lock()
	id := pool.nextFile
	pool.nextFile++
	pool.mu.Unlock()
	return &File{
		pool:      pool,
		path:      path,
		f:         f,
		poolID:    id,
		recSize:   recSize,
		perPage:   perPage,
		count:     count,
		dirtyFrom: -1,
	}, nil
}

// Path returns the file's path.
func (f *File) Path() string { return f.path }

// Count returns the number of record slots written.
func (f *File) Count() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.count
}

// RecordSize returns the fixed record size in bytes.
func (f *File) RecordSize() int { return f.recSize }

// SizeBytes returns the logical data size (records * record size).
func (f *File) SizeBytes() int64 {
	return f.Count() * int64(f.recSize)
}

// DiskBytes returns the file's current on-disk size. Dirty pages still
// resident in the pool are not counted; the value is a footprint
// statistic, not a durability guarantee.
func (f *File) DiskBytes() int64 {
	st, err := f.f.Stat()
	if err != nil {
		return 0
	}
	return st.Size()
}

// Freeze marks the file immutable; further appends fail. Hybrid head
// segments freeze into internal segments at branch points (Section
// 3.4).
func (f *File) Freeze() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.frozen = true
}

// writePage writes a frame's dirty suffix back to disk. Caller holds
// the pool lock or otherwise guarantees exclusive access to the frame.
func (f *File) writePage(fr *frame) error {
	off := fr.key.page*int64(f.pool.pageSize) + int64(fr.from)
	if _, err := f.f.WriteAt(fr.data[fr.from:fr.size], off); err != nil {
		return fmt.Errorf("heap: writing page %d of %s: %w", fr.key.page, f.path, err)
	}
	fr.dirty = false
	return nil
}

// flushLocked writes back the dirty pages of the file: at most the
// pages appended to since the last flush. Caller holds f.mu.
func (f *File) flushLocked() error {
	if f.dirtyFrom < 0 {
		return nil
	}
	p := f.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	for page := f.dirtyFrom; page*int64(f.perPage) < f.count; page++ {
		if fr, ok := p.frames[pageKey{file: f.poolID, page: page}]; ok && fr.dirty {
			if err := f.writePage(fr); err != nil {
				return err
			}
		}
	}
	f.dirtyFrom = -1
	return nil
}

// Append writes one record and returns its slot number.
func (f *File) Append(rec []byte) (int64, error) {
	if len(rec) != f.recSize {
		return 0, fmt.Errorf("heap: record is %d bytes, file expects %d", len(rec), f.recSize)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.frozen {
		return 0, fmt.Errorf("heap: %s is frozen", f.path)
	}
	slot := f.count
	page := slot / int64(f.perPage)
	idx := int(slot % int64(f.perPage))
	fr, err := f.pool.get(f, page, true)
	if err != nil {
		return 0, err
	}
	defer f.pool.unpin(fr)
	off := idx * f.recSize
	copy(fr.data[off:off+f.recSize], rec)
	if off+f.recSize > fr.size {
		fr.size = off + f.recSize
	}
	if !fr.dirty {
		fr.dirty, fr.from = true, off
	}
	if f.dirtyFrom < 0 {
		f.dirtyFrom = page
	}
	f.count++
	return slot, nil
}

// Read copies the record at slot into dst, which must be RecordSize
// bytes.
func (f *File) Read(slot int64, dst []byte) error {
	if len(dst) != f.recSize {
		return fmt.Errorf("heap: dst is %d bytes, want %d", len(dst), f.recSize)
	}
	f.mu.Lock()
	count := f.count
	f.mu.Unlock()
	if slot < 0 || slot >= count {
		return fmt.Errorf("heap: slot %d out of range [0,%d)", slot, count)
	}
	page := slot / int64(f.perPage)
	idx := int(slot % int64(f.perPage))
	fr, err := f.pool.get(f, page, false)
	if err != nil {
		return err
	}
	defer f.pool.unpin(fr)
	copy(dst, fr.data[idx*f.recSize:(idx+1)*f.recSize])
	return nil
}

// Scan calls fn for every slot in [from, to) in ascending order with a
// buffer that aliases the page; fn must not retain it. Returning false
// stops the scan early. Scan pins one page at a time, giving the
// sequential I/O pattern of a branch scan.
func (f *File) Scan(from, to int64, fn func(slot int64, rec []byte) bool) error {
	f.mu.Lock()
	count := f.count
	f.mu.Unlock()
	if to > count {
		to = count
	}
	if from < 0 {
		from = 0
	}
	for slot := from; slot < to; {
		page := slot / int64(f.perPage)
		fr, err := f.pool.get(f, page, false)
		if err != nil {
			return err
		}
		end := (page + 1) * int64(f.perPage)
		if end > to {
			end = to
		}
		for ; slot < end; slot++ {
			idx := int(slot % int64(f.perPage))
			if !fn(slot, fr.data[idx*f.recSize:(idx+1)*f.recSize]) {
				f.pool.unpin(fr)
				return nil
			}
		}
		f.pool.unpin(fr)
	}
	return nil
}

// Truncate discards all records at slot n and beyond (rolling back
// uncommitted appends after a crash). Resident pages past the new end
// are dropped; the boundary page is reloaded on next access.
func (f *File) Truncate(n int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n < 0 || n > f.count {
		return fmt.Errorf("heap: truncate to %d out of range [0,%d]", n, f.count)
	}
	if err := f.flushLocked(); err != nil {
		return err
	}
	f.pool.dropFile(f)
	page := n / int64(f.perPage)
	tail := n % int64(f.perPage)
	size := page * int64(f.pool.pageSize)
	if tail > 0 {
		size += tail * int64(f.recSize)
	}
	if err := f.f.Truncate(size); err != nil {
		return fmt.Errorf("heap: %w", err)
	}
	f.count = n
	return nil
}

// PerPage returns the number of record slots per page.
func (f *File) PerPage() int { return f.perPage }

// Sync flushes dirty pages and fsyncs the file.
func (f *File) Sync() error {
	if err := f.Flush(); err != nil {
		return err
	}
	return f.f.Sync()
}

// Flush writes dirty pages without fsync: what it writes survives a
// crash of the process, not of the machine.
func (f *File) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.flushLocked()
}

// Close flushes and closes the file, dropping its pages from the pool.
func (f *File) Close() error {
	if err := f.Flush(); err != nil {
		return err
	}
	f.pool.dropFile(f)
	return f.f.Close()
}
