// Package store is the shared segment layer beneath Decibel's three
// physical designs. All of them store records in append-only fixed-
// width heap files that freeze at branch points and rotate when the
// schema widens; this package owns them — one Catalog per engine holds
// the segment table, names the files, saves the catalog file, opens and
// sweeps, flushes, compacts and builds the version index — and encodes
// records into a segment's physical layout, so the engines shrink to
// which slots each version holds.
//
// The layer also maintains a sparse secondary index per segment: a
// zone map recording each column's min/max (numeric) or prefix bounds
// (bytes), updated incrementally on append and persisted with the
// segment metadata. Query predicates compiled to interval bounds
// consult the zone maps to skip whole segments before any page byte is
// touched (cf. Sneller's per-block sparse indexes).
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"sync"

	"decibel/internal/record"
)

// zonePrefixLen bounds the stored prefix of Bytes-column zone values.
// Longer values are truncated; the truncation flag keeps the bound
// conservative.
const zonePrefixLen = 8

// ColZone is the zone of one physical column: the range its values
// span across every non-tombstone record of the segment. Exactly one
// of the I/F/B families is meaningful, selected by the column's type.
type ColZone struct {
	// Empty reports that no non-tombstone record has been observed:
	// nothing in the segment can be emitted, so any bound prunes it.
	Empty bool `json:"empty,omitempty"`
	// Unbounded disables pruning on this column (a NaN was stored, so
	// no total order covers the values).
	Unbounded bool `json:"unbounded,omitempty"`

	MinI int64 `json:"minI,omitempty"` // Int32/Int64 bounds, inclusive
	MaxI int64 `json:"maxI,omitempty"`

	MinF float64 `json:"minF,omitempty"` // Float64 bounds, inclusive
	MaxF float64 `json:"maxF,omitempty"`

	// Bytes bounds: MinB is a true inclusive lower bound (a prefix of
	// the minimum orders at or below it). MaxB is the maximum's first
	// zonePrefixLen bytes; MaxBTrunc marks that the maximum extends
	// beyond it, making the effective upper bound succ(MaxB), exclusive.
	MinB      []byte `json:"minB,omitempty"`
	MaxB      []byte `json:"maxB,omitempty"`
	MaxBTrunc bool   `json:"maxBTrunc,omitempty"`
}

// ZoneMap is the per-segment sparse index: one ColZone per physical
// column, covering the first Rows record slots of the segment's file
// (tombstone slots count toward Rows but not toward any zone).
// Updates run under the owning engine's lock; reads may race appends,
// so every access goes through the internal lock. A zone map is always
// conservative: concurrent readers may see a slightly stale (narrower
// in time, never narrower in range) view of rows their liveness
// snapshot predates.
type ZoneMap struct {
	mu    sync.RWMutex
	rows  int64
	tombs int64
	cols  []ColZone
}

// zoneJSON is the persisted form.
type zoneJSON struct {
	Rows  int64     `json:"rows"`
	Tombs int64     `json:"tombs,omitempty"`
	Cols  []ColZone `json:"cols"`
}

// NewZoneMap returns an empty zone map for a segment of numCols
// physical columns.
func NewZoneMap(numCols int) *ZoneMap {
	z := &ZoneMap{cols: make([]ColZone, numCols)}
	for i := range z.cols {
		z.cols[i].Empty = true
	}
	return z
}

// MarshalJSON persists the zone map. NaN cannot appear in the float
// bounds (a NaN flips the column to Unbounded and leaves them zero),
// so the encoding never fails on the values.
func (z *ZoneMap) MarshalJSON() ([]byte, error) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return json.Marshal(zoneJSON{Rows: z.rows, Tombs: z.tombs, Cols: z.cols})
}

// UnmarshalJSON restores a persisted zone map.
func (z *ZoneMap) UnmarshalJSON(data []byte) error {
	var j zoneJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	z.rows = j.Rows
	z.tombs = j.Tombs
	z.cols = j.Cols
	return nil
}

// Rows returns the number of record slots the map covers.
func (z *ZoneMap) Rows() int64 {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.rows
}

// Tombstones returns the number of tombstone slots among the rows the
// map covers — rows a scan can never emit, and what compaction can
// reclaim from a frozen segment.
func (z *ZoneMap) Tombstones() int64 {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.tombs
}

// Col returns a copy of the zone of physical column i; ok is false
// when the map does not cover that column (corrupt or foreign
// metadata — callers must then not prune).
func (z *ZoneMap) Col(i int) (ColZone, bool) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	if i < 0 || i >= len(z.cols) {
		return ColZone{}, false
	}
	return z.cols[i], true
}

// NumCols returns the number of columns the map tracks.
func (z *ZoneMap) NumCols() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return len(z.cols)
}

// Update folds one encoded record buffer (header byte included, laid
// out under schema — the segment's physical schema) into the map.
// Tombstones advance the row count without touching any zone: they are
// never emitted by a scan, so letting their zero-valued columns into
// the bounds would only cost pruning power.
func (z *ZoneMap) Update(schema *record.Schema, buf []byte) {
	z.mu.Lock()
	defer z.mu.Unlock()
	z.rows++
	if record.TombstoneOf(buf) {
		z.tombs++
		return
	}
	n := schema.NumColumns()
	if n > len(z.cols) {
		n = len(z.cols)
	}
	for i := 0; i < n; i++ {
		z.cols[i].observe(schema.Column(i), buf[schema.ColumnOffset(i):])
	}
}

// observe folds one encoded column value into the zone.
func (cz *ColZone) observe(c record.Column, val []byte) {
	switch c.Type {
	case record.Int32:
		cz.observeInt(int64(int32(binary.LittleEndian.Uint32(val))))
	case record.Int64:
		cz.observeInt(int64(binary.LittleEndian.Uint64(val)))
	case record.Float64:
		cz.observeFloat(math.Float64frombits(binary.LittleEndian.Uint64(val)))
	case record.Bytes:
		n := int(binary.LittleEndian.Uint16(val))
		if n > c.Size {
			n = c.Size
		}
		cz.observeBytes(val[2 : 2+n])
	}
}

func (cz *ColZone) observeInt(v int64) {
	if cz.Empty {
		cz.Empty = false
		cz.MinI, cz.MaxI = v, v
		return
	}
	if v < cz.MinI {
		cz.MinI = v
	}
	if v > cz.MaxI {
		cz.MaxI = v
	}
}

func (cz *ColZone) observeFloat(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// NaN has no place in a total order, and infinities do not
		// survive the JSON persistence round-trip; both disable pruning
		// on the column.
		cz.Empty = false
		cz.Unbounded = true
		cz.MinF, cz.MaxF = 0, 0
		return
	}
	if cz.Empty {
		cz.Empty = false
		cz.MinF, cz.MaxF = v, v
		return
	}
	if cz.Unbounded {
		return
	}
	if v < cz.MinF {
		cz.MinF = v
	}
	if v > cz.MaxF {
		cz.MaxF = v
	}
}

func (cz *ColZone) observeBytes(v []byte) {
	p := v
	trunc := false
	if len(p) > zonePrefixLen {
		p = p[:zonePrefixLen]
		trunc = true
	}
	// MinB/MaxB buffers are immutable once published: Col hands struct
	// copies to readers that compare them outside the map's lock, so a
	// bound is always replaced with a freshly allocated slice, never
	// rewritten in place. Replacement only happens when the bound
	// actually moves, so the allocation is rare.
	if cz.Empty {
		cz.Empty = false
		cz.MinB = append([]byte(nil), p...)
		cz.MaxB = append([]byte(nil), p...)
		cz.MaxBTrunc = trunc
		return
	}
	// MinB: prefix of the minimum still lower-bounds every value.
	if bytes.Compare(p, cz.MinB) < 0 {
		cz.MinB = append([]byte(nil), p...)
	}
	// MaxB: compare against the current upper bound conservatively — a
	// value that reaches or exceeds the stored max prefix replaces it.
	if c := bytes.Compare(p, cz.MaxB); c > 0 || (c == 0 && trunc && !cz.MaxBTrunc) {
		cz.MaxB = append([]byte(nil), p...)
		cz.MaxBTrunc = trunc
	}
}

// BytesUpper returns the column's effective upper bound for bytes
// values and whether it is exclusive. ok is false when the zone places
// no upper bound (truncated max with no byte successor).
func (cz ColZone) BytesUpper() (ub []byte, exclusive, ok bool) {
	if !cz.MaxBTrunc {
		return cz.MaxB, false, true
	}
	s, ok := BytesSucc(cz.MaxB)
	return s, true, ok
}

// BytesSucc returns the smallest byte string greater than every string
// with prefix p: p with its last byte incremented (carrying through
// trailing 0xff). ok is false when no such string exists (all 0xff).
func BytesSucc(p []byte) ([]byte, bool) {
	s := append([]byte(nil), p...)
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] != 0xff {
			s[i]++
			return s[:i+1], true
		}
	}
	return nil, false
}
