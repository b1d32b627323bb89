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
// A ScanSpec is single-use per scan: the projection reuses one scratch
// record (and a Transient spec one view record), so it must not be
// shared between concurrent scans. Records produced by Apply alias
// either the engine's buffer or that scratch record and must be Cloned
// to be retained, like every scan output.
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
	// view, set by Transient, is the record Apply rebinds to each row
	// instead of allocating one (nil: allocate per row).
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
// column. The primary key (column 0) is always part of the projection —
// it is prepended when absent — because Decibel addresses records by
// key across versions.
func NewScanSpecAt(hist *record.History, epoch int, pred func([]byte) bool, cols []int) (*ScanSpec, error) {
	sp := &ScanSpec{schema: hist.VisibleAt(epoch), Pred: pred, hist: hist, epoch: epoch}
	if cols == nil {
		return sp, nil
	}
	need0 := true
	for _, c := range cols {
		if c == 0 {
			need0 = false
		}
	}
	if need0 {
		cols = append([]int{0}, cols...)
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
// and resolved projection, but with its own projection scratch record
// — the only stateful piece of a spec. Cloning per execution is what
// lets a compiled plan be reused instead of re-planned.
func (sp *ScanSpec) Clone() *ScanSpec {
	c := *sp
	if sp.out != nil {
		c.scratch = record.New(sp.out)
	}
	if sp.view != nil {
		c.view = new(record.Record)
	}
	return &c
}

// Transient marks the spec's consumer as one that keeps no record past
// its callback — the grouped fold, and the join, which clones what it
// keeps. Apply then rebinds one view record per spec clone instead of
// allocating a record per row. Consumers that keep what they are handed
// (row terminals, a transaction's rollback) leave the spec unmarked.
func (sp *ScanSpec) Transient() { sp.view = new(record.Record) }

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
	src := sp.view
	var err error
	if src != nil {
		err = src.Reset(sp.schema, buf)
	} else {
		src, err = record.FromBytes(sp.schema, buf)
	}
	if err != nil {
		return nil, err
	}
	if sp.out == nil {
		return src, nil
	}
	return sp.project(src), nil
}

// project copies the projected columns of src into the scratch record.
func (sp *ScanSpec) project(src *record.Record) *record.Record {
	dst := sp.scratch
	dst.Bytes()[0] = src.Bytes()[0] // header flags (tombstone)
	for i, c := range sp.cols {
		copy(dst.ColumnBytes(i), src.ColumnBytes(c))
	}
	return dst
}
