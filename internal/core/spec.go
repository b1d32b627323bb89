package core

import (
	"fmt"

	"decibel/internal/record"
)

// ScanSpec is the part of a logical query plan evaluated per stored
// record, before anything is materialized: a predicate over the raw
// encoded buffer and a column projection applied to the records that
// survive it. The planner in internal/query compiles name-based typed
// predicates down to the raw form; the scan driver (scan.go) applies
// the spec to every buffer a scan unit walks.
//
// A ScanSpec is single-use per scan: Apply hands out one record per
// spec — the projection's scratch record, or a view it rebinds to each
// row — so it must not be shared between concurrent scans. Records
// produced by Apply alias the engine's buffer or that scratch record
// and must be Cloned to be retained, like every scan output.
type ScanSpec struct {
	// schema is the table schema visible at epoch; Prep converts
	// buffers stored under older physical layouts into it before Pred
	// or Apply see them.
	schema *record.Schema
	hist   *record.History
	epoch  int

	// Pred evaluates the predicate against one encoded record buffer
	// (header byte included). nil matches every record.
	Pred func(buf []byte) bool

	cols    []int          // source column index per output column
	out     *record.Schema // projected schema (nil = no projection)
	scratch *record.Record
	// view is the record Apply rebinds to each row when the spec does
	// not project, allocated by the first such row.
	view *record.Record

	// bounds are the planner's per-column interval constraints and
	// visPhys the visible-to-physical column mapping they are resolved
	// through; see SetBounds/SkipSegment in bounds.go. Both are
	// immutable once set and shared by Clone.
	bounds  []Bound
	visPhys []int
}

// NewScanSpecAt builds a spec whose target schema is the one visible
// at the given schema epoch of the table's history. pred may be nil
// (match all). cols lists the projected column indices; nil keeps every
// column. The primary key (column 0) is always the projection's first
// column — prepended when absent, moved to the front when listed later —
// because Decibel addresses records by key across versions and a
// record's key is its column 0.
func NewScanSpecAt(hist *record.History, epoch int, pred func([]byte) bool, cols []int) (*ScanSpec, error) {
	sp := &ScanSpec{schema: hist.VisibleAt(epoch), Pred: pred, hist: hist, epoch: epoch}
	if cols == nil {
		return sp, nil
	}
	if len(cols) == 0 || cols[0] != 0 {
		keyFirst := append(make([]int, 0, len(cols)+1), 0)
		for _, c := range cols {
			if c != 0 {
				keyFirst = append(keyFirst, c)
			}
		}
		cols = keyFirst
	}
	outCols := make([]record.Column, len(cols))
	for i, c := range cols {
		if c < 0 || c >= sp.schema.NumColumns() {
			return nil, fmt.Errorf("%w: column index %d", ErrNoSuchColumn, c)
		}
		outCols[i] = sp.schema.Column(c)
	}
	out, err := record.NewSchema(outCols...)
	if err != nil {
		return nil, err
	}
	sp.cols = cols
	sp.out = out
	sp.scratch = record.New(out)
	return sp, nil
}

// Epoch returns the schema epoch the spec's target schema is resolved
// at.
func (sp *ScanSpec) Epoch() int { return sp.epoch }

// Prep returns the conversion for buffers stored under the physical
// layout with physCols columns — defaults filled, columns projected to
// the epoch's view, the stored pages untouched — or nil when they are
// already in the spec's target layout (the common case; the driver then
// skips the call per record). Each returned function owns a fresh
// scratch buffer, so Prep itself does not make the spec stateful; the
// converted buffer it returns is only valid until the next call of that
// same function.
func (sp *ScanSpec) Prep(physCols int) (func(buf []byte) []byte, error) {
	cv, err := sp.hist.Conv(physCols, sp.epoch)
	if err != nil {
		return nil, err
	}
	if cv.Identity() {
		return nil, nil
	}
	scratch := cv.NewScratch()
	return func(buf []byte) []byte { return cv.Convert(buf, scratch) }, nil
}

// Clone returns a spec sharing the compiled predicate, schema history
// and resolved projection, but with its own scratch or view record —
// the only stateful piece of a spec. Cloning per execution is what
// lets a compiled plan be reused instead of re-planned.
func (sp *ScanSpec) Clone() *ScanSpec {
	c := *sp
	c.view = nil
	if sp.out != nil {
		c.scratch = record.New(sp.out)
	}
	return &c
}

// whole returns a spec with sp's predicate and bounds and no
// projection: its rows are views of the whole walked buffer. A version
// pair walks its left version under it, so that a row can be read
// through the right version's spec too (pair.go).
func (sp *ScanSpec) whole() *ScanSpec {
	c := *sp
	c.cols, c.out, c.scratch, c.view = nil, nil, nil, nil
	return &c
}

// Out returns the schema of the records the spec emits: the projected
// schema when a projection is set, the table schema otherwise.
func (sp *ScanSpec) Out() *record.Schema {
	if sp.out != nil {
		return sp.out
	}
	return sp.schema
}

// Apply evaluates the spec against one encoded record buffer. It
// returns nil when the predicate filters the record out; otherwise the
// (possibly projected) record, which aliases buf or the spec's scratch
// record and must not be retained across calls.
func (sp *ScanSpec) Apply(buf []byte) (*record.Record, error) {
	if sp.Pred != nil && !sp.Pred(buf) {
		return nil, nil
	}
	if sp.out != nil {
		return sp.project(buf)
	}
	if sp.view == nil {
		sp.view = new(record.Record)
	}
	return sp.view, sp.view.Reset(sp.schema, buf)
}

// project copies the projected columns of buf into the scratch record.
func (sp *ScanSpec) project(buf []byte) (*record.Record, error) {
	if len(buf) != sp.schema.RecordSize() {
		return nil, fmt.Errorf("record: buffer is %d bytes, schema needs %d", len(buf), sp.schema.RecordSize())
	}
	dst := sp.scratch
	dst.Bytes()[0] = buf[0] // header flags (tombstone)
	for i, c := range sp.cols {
		col := dst.ColumnBytes(i)
		off := sp.schema.ColumnOffset(c)
		copy(col, buf[off:off+len(col)])
	}
	return dst, nil
}
