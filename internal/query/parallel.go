package query

// Pool-mode sinks for the plan's scan shapes. Every terminal runs its
// scan through Compiled.run; when core's driver fans the frozen units
// out on the scan pool it asks for one sink per unit, and this file
// builds them.
//
// Row shapes buffer each unit's output (records cloned on the worker)
// and flush the buffers in unit order, reproducing the sequential
// stream exactly. When the plan carries Limit/OrderBy the units
// pre-trim: a bare Limit stops each unit after `limit` kept rows, and
// OrderBy+Limit keeps a per-unit top-k heap — sound because a row of
// the global top-k is necessarily in its unit's top-k, and exact
// because both the unit trim and EmitOrdered break ordering ties by
// arrival order. Only the facade terminals set Limit/OrderBy, and they
// always run EmitOrdered above these shapes; plans without them emit
// the exact full sequential stream.
//
// Aggregates skip row buffering entirely: each unit folds its own
// partial (count / sums / min / max) and the partials merge in unit
// order. Count, Sum over integers, Min and Max merge exactly; a
// float Sum associates additions differently than the sequential fold,
// so it can differ in the last ulps on data where addition order
// matters (exact on the binary fractions the tests use).

import (
	"container/heap"
	"context"
	"sort"

	"decibel/internal/core"
	"decibel/internal/record"
)

// bufRow is one record a scan unit retained: cloned, with its
// annotation (diff side, cloned membership), tagged with the unit-local
// arrival sequence so trimmed output replays in scan order.
type bufRow struct {
	rec *record.Record
	aux core.UnitAux
	seq int
}

// unitBuf buffers one unit's kept rows, pre-trimmed per the plan.
type unitBuf struct {
	rows   []bufRow
	limit  int
	cmp    func(a, b *record.Record) int // nil = storage order
	next   int
	heaped bool
}

// cmpRows is the plan comparator with arrival-order tie-breaking —
// the same total order EmitOrdered ranks by.
func (b *unitBuf) cmpRows(x, y bufRow) int {
	if d := b.cmp(x.rec, y.rec); d != 0 {
		return d
	}
	return x.seq - y.seq
}

// heap.Interface (only used with cmp set): max-heap, the root is the
// worst retained row.
func (b *unitBuf) Len() int           { return len(b.rows) }
func (b *unitBuf) Less(i, j int) bool { return b.cmpRows(b.rows[i], b.rows[j]) > 0 }
func (b *unitBuf) Swap(i, j int)      { b.rows[i], b.rows[j] = b.rows[j], b.rows[i] }
func (b *unitBuf) Push(x any)         { b.rows = append(b.rows, x.(bufRow)) }
func (b *unitBuf) Pop() any {
	n := len(b.rows)
	r := b.rows[n-1]
	b.rows = b.rows[:n-1]
	return r
}

// add retains one kept row; the false return stops the unit early
// (bare Limit satisfied).
func (b *unitBuf) add(row bufRow) bool {
	row.seq = b.next
	b.next++
	if b.cmp != nil && b.limit > 0 {
		b.heaped = true
		if len(b.rows) < b.limit {
			heap.Push(b, row)
		} else if b.cmpRows(row, b.rows[0]) < 0 {
			b.rows[0] = row
			heap.Fix(b, 0)
		}
		return true
	}
	b.rows = append(b.rows, row)
	return b.limit <= 0 || len(b.rows) < b.limit
}

// flush replays the kept rows in scan order.
func (b *unitBuf) flush(emit func(bufRow) bool) bool {
	if b.heaped {
		sort.Slice(b.rows, func(i, j int) bool { return b.rows[i].seq < b.rows[j].seq })
	}
	for _, row := range b.rows {
		if !emit(row) {
			return false
		}
	}
	return true
}

// runRows runs a row-emitting shape (branch, commit, multi or diff).
// keep filters on the unit annotation before a row counts — the diff
// terminal's side selection; unit trims must count only kept rows.
// In pool mode each unit buffers clones of its kept rows and replays
// them through emit at flush with their annotation: the membership of
// the multi shape, the side of the symmetric diff.
func (c *Compiled) runRows(ctx context.Context, req core.ScanRequest, keep func(core.UnitAux) bool, emit core.UnitFunc) error {
	fn := emit
	if keep != nil {
		fn = func(rec *record.Record, aux core.UnitAux) bool { return !keep(aux) || emit(rec, aux) }
	}
	return c.run(ctx, req, c.execSpec(), fn, func(int, int) core.UnitSink {
		b := &unitBuf{limit: c.plan.Limit}
		if c.Ordered() {
			b.cmp = c.orderCmp()
		}
		return core.UnitSink{
			Fn: func(rec *record.Record, aux core.UnitAux) bool {
				if keep != nil && !keep(aux) {
					return true
				}
				row := bufRow{rec: rec.Clone(), aux: aux}
				if aux.Member != nil {
					row.aux.Member = aux.Member.Clone()
				}
				return b.add(row)
			},
			// The ctx guard keeps the flush phase (the only part that
			// outlives the workers) stopping within one record of
			// cancellation; the driver then surfaces ctx.Err().
			Flush: func() bool {
				return b.flush(func(row bufRow) bool {
					return ctx.Err() == nil && emit(row.rec, row.aux)
				})
			},
		}
	})
}

// aggPart is one partial aggregate: a whole sequential scan's, or one
// pooled unit's.
type aggPart struct {
	n          int
	isum       int64
	fsum       float64
	fmin, fmax float64
}

// add folds one record's value of column a into the partial.
func (p *aggPart) add(a groupAggCol, rec *record.Record) {
	p.n++
	if a.kind == AggCount {
		return
	}
	var v float64
	if a.isFloat {
		v = rec.GetFloat64(a.col)
		p.fsum += v
	} else {
		i := rec.Get(a.col)
		p.isum += i
		v = float64(i)
	}
	if p.n == 1 || v < p.fmin {
		p.fmin = v
	}
	if p.n == 1 || v > p.fmax {
		p.fmax = v
	}
}

// merge folds a later unit's partial into the running total.
func (t *aggPart) merge(p *aggPart) {
	if p.n == 0 {
		return
	}
	if t.n == 0 {
		*t = *p
		return
	}
	t.n += p.n
	t.isum += p.isum
	t.fsum += p.fsum
	if p.fmin < t.fmin {
		t.fmin = p.fmin
	}
	if p.fmax > t.fmax {
		t.fmax = p.fmax
	}
}
