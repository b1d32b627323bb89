package core

import (
	"bytes"
	"encoding/binary"
	"expvar"
	"math"

	"decibel/internal/record"
	"decibel/internal/store"
)

// Bound is one per-column interval constraint the query planner
// derives from a predicate: every record the predicate can match has
// the column's value inside the interval. The planner attaches the
// conjunction of such bounds to a ScanSpec (SetBounds); engines test
// each segment's zone map against them (SkipSegment) and skip whole
// segments no matching record can live in, before touching page bytes.
//
// Bounds are necessarily conservative — the predicate itself still
// runs on every surviving record — so an engine is always free to
// ignore them.
type Bound struct {
	// Col is the column's index in the spec's target schema (the
	// schema visible at the spec's epoch).
	Col  int
	Type record.Type

	HasMin, HasMax bool // whether each end of the interval is constrained

	MinI, MaxI int64   // Int32/Int64 interval, inclusive
	MinF, MaxF float64 // Float64 interval, inclusive

	MinB, MaxB         []byte // Bytes interval
	MinBExcl, MaxBExcl bool   // strictness of each bytes end
}

// SetBounds attaches the planner's per-column bounds to the spec.
// Bounds are shared (not copied) by Clone; they are immutable after
// this call.
func (sp *ScanSpec) SetBounds(bs []Bound) {
	sp.bounds = bs
	sp.visPhys = sp.hist.VisiblePhys(sp.epoch)
}

// Bounds returns the spec's attached bounds (nil when pruning is
// unavailable or disabled).
func (sp *ScanSpec) Bounds() []Bound { return sp.bounds }

// Scan counters. Every SkipSegment call increments exactly one of the
// segment pair, so a selective scan's segment pruning is observable.
// The page pair counts the pages the unit walk meets holding a live
// slot (walkSlots): a dcz page whose planes ruled out every row, so the
// walk visited none, is skipped, and every other is scanned. Folded rows
// counts the rows a fold took from dcz pages whole (foldPage) rather
// than one at a time: it stays 0 over heap pages.
var (
	segmentsScanned = expvar.NewInt("decibel.segments_scanned")
	segmentsSkipped = expvar.NewInt("decibel.segments_skipped")
	pagesScanned    = expvar.NewInt("decibel.pages_scanned")
	pagesSkipped    = expvar.NewInt("decibel.pages_skipped")
	planeFoldedRows = expvar.NewInt("decibel.plane_folded_rows")
)

// SkipSegment reports whether a segment's zone map proves that no
// record stored in it can satisfy the spec's bounds — physCols is the
// segment's physical column count, and columns the segment predates
// participate through their declared defaults (every record read from
// the segment shows exactly the default for such a column). Each call
// feeds the shared segment-scan counters, making pruning observable.
func (sp *ScanSpec) SkipSegment(z *store.ZoneMap, physCols int) bool {
	skip := sp.skipSegment(z, physCols)
	if skip {
		segmentsSkipped.Add(1)
	} else {
		segmentsScanned.Add(1)
	}
	return skip
}

// ExcludesSegment is SkipSegment's verdict without the side effects:
// it does not feed the segment-scan counters. The join planner uses it
// for cardinality estimates — counting the rows of the segments a
// relation's bounds cannot exclude — where no scan takes place and the
// pruning counters must not move.
func (sp *ScanSpec) ExcludesSegment(z *store.ZoneMap, physCols int) bool {
	return sp.skipSegment(z, physCols)
}

func (sp *ScanSpec) skipSegment(z *store.ZoneMap, physCols int) bool {
	if len(sp.bounds) == 0 {
		return false
	}
	for i := range sp.bounds {
		b := &sp.bounds[i]
		if b.Col >= len(sp.visPhys) {
			continue
		}
		phys := sp.visPhys[b.Col]
		if phys < 0 {
			continue
		}
		if phys >= physCols {
			// The segment predates the column: every record reads back
			// the declared default, so the default decides membership.
			if b.excludesEncoded(sp.hist.DefaultBytes(phys)) {
				return true
			}
			continue
		}
		if z == nil {
			continue
		}
		cz, ok := z.Col(phys)
		if !ok {
			continue
		}
		if cz.Empty {
			// No non-tombstone record in the whole segment: nothing a
			// scan could emit.
			return true
		}
		if cz.Unbounded {
			continue
		}
		if b.excludesZone(cz) {
			return true
		}
	}
	return false
}

// excludesZone reports whether the bound's interval and the zone's
// value range cannot overlap.
func (b *Bound) excludesZone(cz store.ColZone) bool {
	switch b.Type {
	case record.Int32, record.Int64:
		return (b.HasMin && cz.MaxI < b.MinI) || (b.HasMax && cz.MinI > b.MaxI)
	case record.Float64:
		return (b.HasMin && cz.MaxF < b.MinF) || (b.HasMax && cz.MinF > b.MaxF)
	case record.Bytes:
		if b.HasMin {
			// Compare the zone's upper bound against the interval's
			// lower end; a truncated zone max makes the upper bound
			// succ(prefix), exclusive.
			if ub, ubExcl, ok := cz.BytesUpper(); ok {
				if c := bytes.Compare(ub, b.MinB); c < 0 || (c == 0 && (ubExcl || b.MinBExcl)) {
					return true
				}
			}
		}
		if b.HasMax {
			// MinB is always a true inclusive lower bound.
			if c := bytes.Compare(cz.MinB, b.MaxB); c > 0 || (c == 0 && b.MaxBExcl) {
				return true
			}
		}
	}
	return false
}

// excludesEncoded reports whether the bound excludes the single
// encoded value val (a column default; nil means the zero value).
func (b *Bound) excludesEncoded(val []byte) bool {
	switch b.Type {
	case record.Int32:
		var v int64
		if val != nil {
			v = int64(int32(binary.LittleEndian.Uint32(val)))
		}
		return (b.HasMin && v < b.MinI) || (b.HasMax && v > b.MaxI)
	case record.Int64:
		var v int64
		if val != nil {
			v = int64(binary.LittleEndian.Uint64(val))
		}
		return (b.HasMin && v < b.MinI) || (b.HasMax && v > b.MaxI)
	case record.Float64:
		var v float64
		if val != nil {
			v = math.Float64frombits(binary.LittleEndian.Uint64(val))
		}
		if math.IsNaN(v) {
			return false
		}
		return (b.HasMin && v < b.MinF) || (b.HasMax && v > b.MaxF)
	case record.Bytes:
		var v []byte
		if val != nil {
			n := int(binary.LittleEndian.Uint16(val))
			if n > len(val)-2 {
				n = len(val) - 2
			}
			v = val[2 : 2+n]
		}
		if b.HasMin {
			if c := bytes.Compare(v, b.MinB); c < 0 || (c == 0 && b.MinBExcl) {
				return true
			}
		}
		if b.HasMax {
			if c := bytes.Compare(v, b.MaxB); c > 0 || (c == 0 && b.MaxBExcl) {
				return true
			}
		}
	}
	return false
}
