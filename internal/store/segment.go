package store

import (
	"fmt"
	"sync"

	"decibel/internal/heap"
	"decibel/internal/record"
)

// A segment is one fixed-width record file — a paged heap file, or once
// compacted a compressed one — tagged with the physical schema layout
// its records use and carrying their zone map. An engine's segments
// form its Catalog (catalog.go).

// Segment encodings. The empty string means heap: a catalog entry
// records no tag for a heap segment.
const (
	// EncHeap is the uncompressed paged heap-file layout.
	EncHeap = "heap"
	// EncDCZ is the compressed per-column page layout of cfile.go
	// (dictionary for low-cardinality planes, delta+varint for int64,
	// CRC-checked pages).
	EncDCZ = "dcz"
)

// SegFile is the file surface a segment reads and writes through —
// the full method set of heap.File, which compressed segment files
// (CompressedFile) implement read-only. Engines address segments only
// through this interface, so a compacted, compressed segment scans
// exactly like a heap one.
type SegFile interface {
	Path() string
	Count() int64
	RecordSize() int
	SizeBytes() int64
	DiskBytes() int64
	PerPage() int
	Freeze()
	Append(rec []byte) (int64, error)
	Read(slot int64, dst []byte) error
	Scan(from, to int64, fn func(slot int64, rec []byte) bool) error
	Truncate(n int64) error
	Sync() error
	Flush() error
	Close() error
}

// SegMeta is the persisted, engine-independent part of a segment's
// catalog entry. Each engine's segments.json embeds it, so the
// shared state — the physical schema-version id, the freeze flag, the
// encoding tag and the zone map — serializes alongside the
// engine-specific fields. A missing zone, or one covering fewer rows
// than the file holds, is extended at Open.
type SegMeta struct {
	Cols     int      `json:"cols,omitempty"`
	Frozen   bool     `json:"frozen,omitempty"`
	Encoding string   `json:"enc,omitempty"` // "", EncHeap or EncDCZ
	Zone     *ZoneMap `json:"zone,omitempty"`
}

// Segment is one append target: a fixed-width heap file tagged with
// the physical layout its records are encoded under, plus its zone
// map. A catalog Entry embeds it; engines embed the Entry and add their
// liveness state (vf's lineage link, hy's local bitmaps).
type Segment struct {
	File     SegFile
	Cols     int            // physical schema columns records here are encoded with
	Schema   *record.Schema // layout of Cols columns
	Frozen   bool
	Encoding string // "" (heap), EncHeap or EncDCZ
	zone     *ZoneMap

	// Reader pinning: scans that snapshot the segment table outside the
	// engine lock pin each segment they will read; compaction retires
	// replaced segments, deferring close+unlink until the last pinned
	// reader drains.
	pinMu   sync.Mutex
	pins    int
	retired bool
	cleanup func()
}

// Store opens and creates segments against the table's schema history
// for one engine instance (its Catalog calls it) and encodes records
// into a segment's physical layout. Mutating methods run under the
// owning engine's lock (the Store has no lock of its own — the append
// scratch buffer relies on the engine's).
type Store struct {
	Pool *heap.Pool
	Hist *record.History

	insBuf []byte // storage-conversion scratch; guarded by the engine's lock
}

// New builds a Store over the engine's buffer pool and schema history.
func New(pool *heap.Pool, hist *record.History) *Store {
	return &Store{Pool: pool, Hist: hist}
}

// Open opens (or creates) the segment whose heap file lives at path,
// restoring the shared state from m; m.Cols, the segment's physical
// column count, must name a layout of the table's history.
// safeCount >= 0 rolls back uncommitted appends by truncating the file
// past it (vf's recovery contract); pass -1 to keep every record. The
// zone map is restored from m.Zone and extended over any rows it does
// not cover: rows appended after the catalog was last saved, or all of
// them when the entry has no zone.
func (st *Store) Open(path string, m SegMeta, safeCount int64) (*Segment, error) {
	schema, err := st.Hist.PhysByCount(m.Cols)
	if err != nil {
		return nil, err
	}
	var f SegFile
	switch m.Encoding {
	case "", EncHeap:
		f, err = heap.Open(st.Pool, path, schema.RecordSize())
	case EncDCZ:
		f, err = OpenCompressed(path)
		if err == nil && f.RecordSize() != schema.RecordSize() {
			f.Close()
			err = fmt.Errorf("store: %s: compressed record size %d, schema wants %d", path, f.RecordSize(), schema.RecordSize())
		}
	default:
		err = fmt.Errorf("store: %s: unknown segment encoding %q", path, m.Encoding)
	}
	if err != nil {
		return nil, err
	}
	if safeCount >= 0 && f.Count() > safeCount {
		if err := f.Truncate(safeCount); err != nil {
			f.Close()
			return nil, err
		}
	}
	s := &Segment{File: f, Cols: m.Cols, Schema: schema, Encoding: m.Encoding, zone: m.Zone}
	if m.Frozen {
		s.Freeze()
	}
	if err := st.extendZone(s); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// extendZone brings the segment's zone map up to the file's row count,
// scanning only the uncovered tail. A missing, over-long (the file was
// truncated below what the map covered) or shape-mismatched map is
// rebuilt from scratch.
func (st *Store) extendZone(s *Segment) error {
	count := s.File.Count()
	z := s.zone
	if z == nil || z.Rows() > count || z.NumCols() != s.Schema.NumColumns() {
		z = NewZoneMap(s.Schema.NumColumns())
		s.zone = z
	}
	from := z.Rows()
	if from >= count {
		return nil
	}
	return s.File.Scan(from, count, func(_ int64, buf []byte) bool {
		z.Update(s.Schema, buf)
		return true
	})
}

// Meta returns the segment's persistable shared state. The zone map is
// shared, not copied; its JSON marshaling snapshots it under its own
// lock.
func (s *Segment) Meta() SegMeta {
	return SegMeta{Cols: s.Cols, Frozen: s.Frozen, Encoding: s.Encoding, Zone: s.zone}
}

// Pin marks the segment in use by a reader whose liveness snapshot was
// taken under the engine lock but whose page reads run outside it.
// Every Pin must be matched by one Unpin.
func (s *Segment) Pin() {
	s.pinMu.Lock()
	s.pins++
	s.pinMu.Unlock()
}

// Unpin releases one reader pin. If the segment was retired while
// pinned, the last Unpin runs the deferred cleanup.
func (s *Segment) Unpin() {
	s.pinMu.Lock()
	if s.pins <= 0 {
		s.pinMu.Unlock()
		panic("store: segment unpin without pin")
	}
	s.pins--
	var cl func()
	if s.pins == 0 && s.retired {
		cl, s.cleanup = s.cleanup, nil
	}
	s.pinMu.Unlock()
	if cl != nil {
		cl()
	}
}

// Retire marks a segment replaced by compaction: cleanup (close the
// file, unlink it) runs immediately when no reader holds a pin, or on
// the last Unpin otherwise. The caller must have removed the segment
// from every structure new scans resolve through before retiring it.
func (s *Segment) Retire(cleanup func()) {
	s.pinMu.Lock()
	s.retired = true
	if s.pins == 0 {
		s.pinMu.Unlock()
		if cleanup != nil {
			cleanup()
		}
		return
	}
	s.cleanup = cleanup
	s.pinMu.Unlock()
}

// Zone returns the segment's zone map.
func (s *Segment) Zone() *ZoneMap { return s.zone }

// Freeze marks the segment immutable: the heap file rejects further
// appends. Freezing twice is a no-op.
func (s *Segment) Freeze() {
	if !s.Frozen {
		s.Frozen = true
		s.File.Freeze()
	}
}

// NeedsRotation reports whether the segment's layout is too narrow to
// store records at the physical width `need` — the trigger for sealing
// it and opening a successor (a schema change never rewrites pages).
func (s *Segment) NeedsRotation(need int) bool { return s.Cols < need }

// AppendRaw appends one record buffer already encoded in the segment's
// layout, folding it into the zone map.
func (s *Segment) AppendRaw(buf []byte) (int64, error) {
	slot, err := s.File.Append(buf)
	if err != nil {
		return 0, err
	}
	s.zone.Update(s.Schema, buf)
	return slot, nil
}

// Append encodes rec — built under any schema the history has produced
// — into the segment's physical layout (widening older-schema records
// with declared defaults) and appends it. Caller holds the engine
// lock guarding the Store's scratch buffer.
func (st *Store) Append(s *Segment, rec *record.Record) (int64, error) {
	if n := s.Schema.RecordSize(); len(st.insBuf) < n {
		st.insBuf = make([]byte, n)
	}
	buf, err := st.Hist.StorageBytes(rec, s.Cols, st.insBuf[:s.Schema.RecordSize()])
	if err != nil {
		return 0, err
	}
	return s.AppendRaw(buf)
}

// AppendTombstone appends a deletion marker for pk in the segment's
// layout (vf's delete path). Tombstones never enter the zone map.
func (s *Segment) AppendTombstone(pk int64) (int64, error) {
	tomb := record.New(s.Schema)
	tomb.SetPK(pk)
	tomb.SetTombstone(true)
	return s.AppendRaw(tomb.Bytes())
}

// ColZoneStat is one formatted zone-map entry for diagnostics.
type ColZoneStat struct {
	Column string
	Min    string
	Max    string
}

// SegmentStat is the per-segment summary behind the CLI's
// `stats <table>` output.
type SegmentStat struct {
	Name       string
	Rows       int64
	Cols       int
	Frozen     bool
	Encoding   string // "heap" or "dcz"
	RawBytes   int64  // logical record bytes (rows * record size)
	DiskBytes  int64  // bytes the segment file occupies on disk
	Tombstones int64  // tombstone slots (deletion markers)
	// Version-first lineage shape (zero on other engines): the number
	// of lineage steps a scan rooted at this segment's tip resolves
	// through, and the size of the segment's merge override table.
	LineageDepth int
	Overrides    int
	Zones        []ColZoneStat
}

// Stat summarizes the segment under the given display name.
func (s *Segment) Stat(name string) SegmentStat {
	enc := s.Encoding
	if enc == "" {
		enc = EncHeap
	}
	st := SegmentStat{
		Name: name, Rows: s.File.Count(), Cols: s.Cols, Frozen: s.Frozen,
		Encoding:  enc,
		RawBytes:  s.File.SizeBytes(),
		DiskBytes: s.File.DiskBytes(),
	}
	if s.zone != nil {
		st.Tombstones = s.zone.Tombstones()
	}
	for i := 0; i < s.Schema.NumColumns(); i++ {
		cz, ok := s.zone.Col(i)
		zs := ColZoneStat{Column: s.Schema.Column(i).Name, Min: "-", Max: "-"}
		if ok && !cz.Empty && !cz.Unbounded {
			switch s.Schema.Column(i).Type {
			case record.Int32, record.Int64:
				zs.Min, zs.Max = fmt.Sprintf("%d", cz.MinI), fmt.Sprintf("%d", cz.MaxI)
			case record.Float64:
				zs.Min, zs.Max = fmt.Sprintf("%g", cz.MinF), fmt.Sprintf("%g", cz.MaxF)
			case record.Bytes:
				zs.Min = fmt.Sprintf("%q", cz.MinB)
				zs.Max = fmt.Sprintf("%q", cz.MaxB)
				if cz.MaxBTrunc {
					zs.Max += "…"
				}
			}
		}
		st.Zones = append(st.Zones, zs)
	}
	return st
}
