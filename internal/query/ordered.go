package query

// Order-aware segment visiting: how every OrderBy+Limit row read runs.
// The executor partitions the scan into per-segment units (the same
// core.ScanUnit partition the scan driver runs in order), visits them
// sorted by the order column's zone bound — most favorable bound first
// — on the calling goroutine, and keeps the best `limit` rows in a
// top-k heap (visitHeap, the package's only one). Once the heap is
// full, it skips every unit whose bound proves it cannot beat the
// heap's worst retained row.
//
// The output is byte-identical to sorting the plain sequential stream
// stably and cutting it at `limit`. Sequential arrival order is exactly
// lexicographic (unit index, position within unit), so the visitor
// tags each retained row with that coordinate and breaks ordering ties
// by it, making the result independent of the permuted visit order.
// Skipping is strict (a unit is skipped only when its best possible
// value is strictly worse than the heap root): a unit whose bound
// merely ties the root could hold a row with an earlier arrival
// coordinate that wins the tie, so it must be visited.
//
// Units without a usable bound — mutable branch heads, segments whose
// layout predates the order column, zones poisoned by NaN — sort first
// and always run; they are also the cheapest way to seed the heap with
// real rows before the bounded skip test starts paying off. Units whose
// zone is empty (tombstones only) can emit nothing and are skipped
// outright. The expvar counter decibel.ordered_skips totals the units
// skipped either way. A NoPrune plan visits every unit in storage
// order and skips none.

import (
	"bytes"
	"container/heap"
	"context"
	"expvar"
	"sort"

	"decibel/internal/core"
	"decibel/internal/record"
)

// orderedSkips counts scan units the ordered visitor skipped — by zone
// bound against the top-k heap root, or because their zone was empty.
var orderedSkips = expvar.NewInt("decibel.ordered_skips")

// unitBound is the most favorable order-column value any emitted row of
// one unit can carry, read from its segment's zone map: the zone lower
// bound ascending, the upper bound descending. exclusive marks a bytes
// upper bound reconstructed from a truncated zone prefix — every stored
// value is strictly below it.
type unitBound struct {
	i         int64
	f         float64
	b         []byte
	exclusive bool
}

// orderedVisitPlan is one unit's visit decision inputs: its original
// index (the arrival coordinate ties break by) and its bound, if any.
type orderedVisitPlan struct {
	idx     int
	bounded bool
	empty   bool
	bound   unitBound
}

// unitOrderBound derives a unit's bound on the order column. bounded is
// false when the zone cannot bound it: a mutable head (its zone moves
// under concurrent appends even though this snapshot would be covered —
// unbounded is simpler and the head runs anyway), a nil or foreign
// zone, a layout that predates the column (rows widen with defaults at
// scan time), or a NaN/Inf-poisoned float zone. empty means the zone
// saw only tombstones: the unit cannot emit and is skipped whole.
func unitOrderBound(u core.ScanUnit, srcIdx int, ctype record.Type, desc bool) (bound unitBound, bounded, empty bool) {
	if !u.Frozen || u.Zone == nil || srcIdx >= u.PhysCols {
		return unitBound{}, false, false
	}
	cz, ok := u.Zone.Col(srcIdx)
	if !ok {
		return unitBound{}, false, false
	}
	if cz.Empty {
		return unitBound{}, false, true
	}
	if cz.Unbounded {
		return unitBound{}, false, false
	}
	switch ctype {
	case record.Int32, record.Int64:
		if desc {
			return unitBound{i: cz.MaxI}, true, false
		}
		return unitBound{i: cz.MinI}, true, false
	case record.Float64:
		if desc {
			return unitBound{f: cz.MaxF}, true, false
		}
		return unitBound{f: cz.MinF}, true, false
	case record.Bytes:
		if desc {
			ub, excl, ok := cz.BytesUpper()
			if !ok {
				return unitBound{}, false, false
			}
			return unitBound{b: ub, exclusive: excl}, true, false
		}
		return unitBound{b: cz.MinB}, true, false
	}
	return unitBound{}, false, false
}

// boundCmp returns the visit-order comparator over unit bounds: smaller
// means more favorable under the plan's direction, so sorting ascending
// visits the most promising units first. For descending bytes, an
// exclusive bound ties below an inclusive one at the same value (its
// true supremum lies strictly beneath).
func boundCmp(ctype record.Type, desc bool) func(a, b unitBound) int {
	switch ctype {
	case record.Float64:
		if desc {
			return func(a, b unitBound) int { return cmpF(b.f, a.f) }
		}
		return func(a, b unitBound) int { return cmpF(a.f, b.f) }
	case record.Bytes:
		if desc {
			return func(a, b unitBound) int {
				if d := bytes.Compare(b.b, a.b); d != 0 {
					return d
				}
				switch {
				case a.exclusive && !b.exclusive:
					return 1
				case !a.exclusive && b.exclusive:
					return -1
				}
				return 0
			}
		}
		return func(a, b unitBound) int { return bytes.Compare(a.b, b.b) }
	default:
		if desc {
			return func(a, b unitBound) int { return cmpI(b.i, a.i) }
		}
		return func(a, b unitBound) int { return cmpI(a.i, b.i) }
	}
}

// boundWorse returns the skip test: whether a unit whose best possible
// value is `bound` is strictly worse than the heap root's value — no
// row it holds can enter the top-k, not even on an arrival-order tie.
// Float roots may be NaN (NaN orders below every number): ascending, a
// numeric bound is then strictly worse; descending, nothing is.
func boundWorse(ctype record.Type, desc bool, orderIdx int) func(bound unitBound, root *record.Record) bool {
	switch ctype {
	case record.Float64:
		if desc {
			return func(b unitBound, root *record.Record) bool {
				return cmpFloatOrder(b.f, root.GetFloat64(orderIdx)) < 0
			}
		}
		return func(b unitBound, root *record.Record) bool {
			return cmpFloatOrder(b.f, root.GetFloat64(orderIdx)) > 0
		}
	case record.Bytes:
		if desc {
			return func(b unitBound, root *record.Record) bool {
				d := bytes.Compare(b.b, root.GetBytes(orderIdx))
				return d < 0 || (d == 0 && b.exclusive)
			}
		}
		return func(b unitBound, root *record.Record) bool {
			return bytes.Compare(b.b, root.GetBytes(orderIdx)) > 0
		}
	default:
		if desc {
			return func(b unitBound, root *record.Record) bool {
				return b.i < root.Get(orderIdx)
			}
		}
		return func(b unitBound, root *record.Record) bool {
			return b.i > root.Get(orderIdx)
		}
	}
}

// visitRec is one retained row tagged with its sequential arrival
// coordinate: (unit index, position among the rows the unit delivered).
type visitRec struct {
	rec  *record.Record
	unit int
	seq  int
}

// visitHeap is a max-heap under the plan comparator with arrival-
// coordinate tie-breaking: the root is the worst retained row.
type visitHeap struct {
	recs []visitRec
	cmp  func(a, b visitRec) int
	// unit, seq: the arrival coordinate of the next row delivered (kept
	// here so the visitor's callback captures one object).
	unit, seq int
}

func (h *visitHeap) Len() int           { return len(h.recs) }
func (h *visitHeap) Less(i, j int) bool { return h.cmp(h.recs[i], h.recs[j]) > 0 }
func (h *visitHeap) Swap(i, j int)      { h.recs[i], h.recs[j] = h.recs[j], h.recs[i] }
func (h *visitHeap) Push(x any)         { h.recs = append(h.recs, x.(visitRec)) }
func (h *visitHeap) Pop() any {
	n := len(h.recs)
	r := h.recs[n-1]
	h.recs = h.recs[:n-1]
	return r
}

// orderedVisit drives one OrderBy+Limit row terminal as an order-aware
// unit walk.
func (c *Compiled) orderedVisit(ctx context.Context, req core.ScanRequest, fn core.ScanFunc) error {
	units, release, _, err := c.table.PartitionUnits(req)
	if err != nil {
		return err
	}
	defer release()

	limit := c.plan.Limit
	srcIdx := c.schema.ColumnIndex(c.plan.OrderCol)
	ctype := c.schema.Column(srcIdx).Type
	desc := c.plan.OrderDesc

	visits := make([]orderedVisitPlan, len(units))
	for i, u := range units {
		v := orderedVisitPlan{idx: i}
		if !c.plan.NoPrune {
			v.bound, v.bounded, v.empty = unitOrderBound(u, srcIdx, ctype, desc)
		}
		visits[i] = v
	}
	// Unbounded units first (they always run), then bounded units by
	// ascending bound favorability; arrival order breaks ties so equal
	// bounds keep their sequential relative order.
	bcmp := boundCmp(ctype, desc)
	sort.SliceStable(visits, func(i, j int) bool {
		a, b := visits[i], visits[j]
		if a.bounded != b.bounded {
			return !a.bounded
		}
		if !a.bounded {
			return a.idx < b.idx
		}
		if d := bcmp(a.bound, b.bound); d != 0 {
			return d < 0
		}
		return a.idx < b.idx
	})

	cmp := c.orderCmp()
	vcmp := func(a, b visitRec) int {
		if d := cmp(a.rec, b.rec); d != 0 {
			return d
		}
		if d := a.unit - b.unit; d != 0 {
			return d
		}
		return a.seq - b.seq
	}
	worse := boundWorse(ctype, desc, c.orderIdx)
	h := &visitHeap{cmp: vcmp}
	// One runner serves every visited unit. Only a filling heap clones:
	// a row that displaces the root is copied into the evicted root's
	// record, whose bytes fit, since every row of the visit is laid out
	// in the spec's output schema.
	runner := core.NewUnitRunner(ctx, c.execSpec(), func(rec *record.Record, _ core.UnitAux) bool {
		r := visitRec{rec: rec, unit: h.unit, seq: h.seq}
		h.seq++
		if h.Len() < limit {
			r.rec = rec.Clone()
			heap.Push(h, r)
		} else if vcmp(r, h.recs[0]) < 0 {
			r.rec = h.recs[0].rec
			copy(r.rec.Bytes(), rec.Bytes())
			h.recs[0] = r
			heap.Fix(h, 0)
		}
		return true
	})
	runner.UsePlanes(c)
	skipped := 0
	for _, v := range visits {
		if err := ctx.Err(); err != nil {
			return err
		}
		if v.empty || (v.bounded && h.Len() == limit && worse(v.bound, h.recs[0].rec)) {
			skipped++
			continue
		}
		h.unit, h.seq = v.idx, 0
		if err := runner.Run(&units[v.idx]); err != nil {
			return err
		}
	}
	if skipped > 0 {
		orderedSkips.Add(int64(skipped))
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	sort.Slice(h.recs, func(i, j int) bool { return vcmp(h.recs[i], h.recs[j]) < 0 })
	for _, r := range h.recs {
		if !fn(r.rec) {
			return nil
		}
	}
	return nil
}
