package store

// The segment catalog: an engine's segments and everything about them
// except which slots each version holds, which is all the three schemes
// differ in. An engine embeds Entry in its segment struct next to its
// liveness state and hands the catalog its persisted form (marshaled as
// is into segments.json) and the rows each segment keeps. Segment id's
// data file is seg<id>.dat, or seg<id>.dcz once compressed.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"decibel/internal/record"
	"decibel/internal/wal"
)

// Entry is the catalog's part of one segment.
type Entry struct {
	*Segment
	// ID is the segment's position in the catalog's Segs, and names,
	// under the naming rule, its file. On hybrid and version-first it is
	// also the segment's slot space, its Pos.Seg; a chained catalog's
	// segments (tuple-first's extents) share slot space 0.
	ID int32
	// Base is the slot, in a chained catalog's one slot space, of the
	// segment's slot 0; it is 0 in catalogs that are not chained.
	Base int64
}

func (e *Entry) entry() *Entry { return e }

// Seg is the type of a catalog's entries: an engine's segment struct
// embedding Entry, or *Entry itself.
type Seg interface{ entry() *Entry }

// Catalog is one engine's table of segments. Its methods run under the
// engine's lock; readers outside the lock hold a pinned *Segment, never
// an entry.
type Catalog[S Seg] struct {
	// Segs is the table in scan order. Engines fill it before Open and
	// otherwise change it only through the catalog.
	Segs []S

	st        *Store
	dir       string
	fsync     bool
	failPoint string
	// chained catalogs number the slots of all segments in one space,
	// each segment starting where the one before it ends (tuple-first's
	// chain of extents). Otherwise each segment is a slot space of its
	// own.
	chained bool
	meta    func() any
}

// catalogFile is every engine's catalog file.
const catalogFile = "segments.json"

// NewCatalog returns an empty catalog of the engine's segments in dir,
// chained (see Catalog.chained) or not. meta returns the engine's
// catalog as it is persisted; Save marshals it to JSON. With fsync,
// Flush and Save sync what they write. failPoint, empty outside
// crash-injection tests, names where every Compact pass aborts
// (FailAfterTemp, FailBeforeUnlink).
func NewCatalog[S Seg](st *Store, dir string, fsync bool, failPoint string, chained bool, meta func() any) *Catalog[S] {
	return &Catalog[S]{st: st, dir: dir, fsync: fsync, failPoint: failPoint, chained: chained, meta: meta}
}

// path is the naming rule: the data file of segment id under enc.
func (c *Catalog[S]) path(id int32, enc string) string {
	ext := ".dat"
	if enc == EncDCZ {
		ext = ".dcz"
	}
	return filepath.Join(c.dir, "seg"+strconv.Itoa(int(id))+ext)
}

// Load reads the catalog file into v, which it leaves as it is when
// there is none: the engine has not saved one yet.
func (c *Catalog[S]) Load(v any) error {
	data, err := os.ReadFile(filepath.Join(c.dir, catalogFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err == nil {
		err = json.Unmarshal(data, v)
	}
	if err != nil {
		return fmt.Errorf("catalog %s: %w", catalogFile, err)
	}
	return nil
}

// Open opens the data file of every entry in Segs, in order. meta(i)
// gives entry i's shared state and the rows it keeps: appends past keep
// were never vouched for and roll back, and a file holding fewer rows
// than keep has lost some, which is an error; -1 keeps every row. An
// entry whose ID is not its position is a corrupt catalog, refused
// before its file is opened. Once the table is open, the data files it
// does not list are removed.
func (c *Catalog[S]) Open(meta func(i int) (m SegMeta, keep int64)) error {
	for i, s := range c.Segs {
		e := s.entry()
		if e.ID != int32(i) {
			return fmt.Errorf("corrupt catalog %s: segment %d is listed at position %d", catalogFile, e.ID, i)
		}
		m, keep := meta(i)
		seg, err := c.st.Open(c.path(e.ID, m.Encoding), m, keep)
		if err != nil {
			return fmt.Errorf("segment %d: %w", e.ID, err)
		}
		e.Segment, e.Base = seg, c.base(i)
		if n := seg.File.Count(); n < keep {
			return fmt.Errorf("segment %d holds %d records, the catalog vouches for %d", e.ID, n, keep)
		}
	}
	c.sweep()
	return nil
}

// base is the slot entry i starts at: in a chained catalog, where entry
// i-1 ends.
func (c *Catalog[S]) base(i int) int64 {
	if i == 0 || !c.chained {
		return 0
	}
	prev := c.Segs[i-1].entry()
	return prev.Base + prev.File.Count()
}

// sweep removes from the directory the data files the table does not
// list — debris of a compaction (or a crash) that wrote replacement
// files without committing them, or committed without unlinking the old
// ones — and stale temporary files.
func (c *Catalog[S]) sweep() {
	keep := make(map[string]bool, len(c.Segs))
	for _, s := range c.Segs {
		keep[filepath.Base(s.entry().File.Path())] = true
	}
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || keep[name] {
			continue
		}
		data := strings.HasPrefix(name, "seg") &&
			(strings.HasSuffix(name, ".dat") || strings.HasSuffix(name, ".dcz"))
		if data || strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(c.dir, name))
		}
	}
}

// Add creates the data file of s, empty and laid out for cols columns,
// and appends s to the table. The file is named here, once.
func (c *Catalog[S]) Add(s S, cols int) error {
	e := s.entry()
	seg, err := c.st.Open(c.path(e.ID, EncHeap), SegMeta{Cols: cols}, -1)
	if err != nil {
		return err
	}
	e.Segment, e.Base = seg, c.base(len(c.Segs))
	c.Segs = append(c.Segs, s)
	return nil
}

// Flush writes every segment's appended rows to its file, which a crash
// of the process then keeps, and with fsync syncs the file, which a
// power loss then keeps. An operation that vouches for rows — a commit,
// a catalog — flushes before it returns.
func (c *Catalog[S]) Flush() error {
	for _, s := range c.Segs {
		f := s.entry().File
		var err error
		if c.fsync {
			err = f.Sync()
		} else {
			err = f.Flush()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Save writes the catalog file: the rows its counts vouch for reach the
// files first (Flush), then the file is replaced whole.
func (c *Catalog[S]) Save() error {
	data, err := json.Marshal(c.meta())
	if err != nil {
		return err
	}
	if err := c.Flush(); err != nil {
		return err
	}
	return wal.ReplaceFile(filepath.Join(c.dir, catalogFile), data, c.fsync)
}

// Versions builds the version index in one sequential pass over every
// stored record, a page at a time, independent of the number of
// branches, and calls tomb, when it is not nil, with the position of
// every tombstone (version-first's deletes; the bitmap engines store
// none). Every stored slot is indexed, not only those live in some
// head: a slot reachable only through a historical commit becomes live
// again when a branch is created at that commit, and creating it must
// not have to scan for it. Keys and the tombstone flag sit at fixed
// offsets in every schema version, so raw buffers are read without
// converting them.
func (c *Catalog[S]) Versions(tomb func(Pos)) (*VersionIndex, error) {
	var total int64
	for _, s := range c.Segs {
		total += s.entry().File.Count()
	}
	ix := NewVersionIndex(int(total))
	for _, s := range c.Segs {
		e := s.entry()
		at := Pos{Seg: e.ID}
		if c.chained {
			at = Pos{Slot: e.Base}
		}
		err := e.File.Scan(0, e.File.Count(), func(slot int64, buf []byte) bool {
			p := Pos{Seg: at.Seg, Slot: at.Slot + slot}
			ix.Push(record.PKOf(buf), p)
			if tomb != nil && record.TombstoneOf(buf) {
				tomb(p)
			}
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// Totals sums the table: the record slots stored, dead copies included,
// their logical bytes, and the catalog file's size.
func (c *Catalog[S]) Totals() (records, dataBytes, fileBytes int64) {
	for _, s := range c.Segs {
		records += s.entry().File.Count()
		dataBytes += s.entry().File.SizeBytes()
	}
	if fi, err := os.Stat(filepath.Join(c.dir, catalogFile)); err == nil {
		fileBytes = fi.Size()
	}
	return records, dataBytes, fileBytes
}

// DecodedBytes returns what the catalog's dcz segments keep resident in
// their decoded-page caches (CompressedFile.CachedBytes).
func (c *Catalog[S]) DecodedBytes() int64 {
	var n int64
	for _, s := range c.Segs {
		if cf, ok := s.entry().File.(*CompressedFile); ok {
			n += cf.CachedBytes()
		}
	}
	return n
}

// SegmentStats summarizes every segment, in scan order, under the name
// label gives it.
func (c *Catalog[S]) SegmentStats(label func(S) string) []SegmentStat {
	out := make([]SegmentStat, len(c.Segs))
	for i, s := range c.Segs {
		out[i] = s.entry().Stat(label(s))
	}
	return out
}

// Close closes every segment file, after a failed Open those opened so
// far, saving the catalog first when save is set.
func (c *Catalog[S]) Close(save bool) error {
	var first error
	if save {
		first = c.Save()
	}
	for _, s := range c.Segs {
		if e := s.entry(); e.Segment != nil {
			if err := e.File.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
