package query

// OrderBy/Limit execution. Engines emit in storage order, so each
// combination runs one way: Limit alone streams and stops early;
// OrderBy alone gathers everything and sorts it stably; OrderBy+Limit
// takes the order-aware unit visit (ordered.go), whose bounded top-k
// heap keeps memory O(limit) regardless of the scan size. A
// single-version read whose predicate pins the primary key returns at
// most one row, so it goes straight to the point lookup of Scan.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"

	"decibel/internal/core"
	"decibel/internal/record"
)

// Ordered reports whether the plan requests ordered emission.
func (c *Compiled) Ordered() bool { return c.orderIdx >= 0 }

// noOrdering rejects OrderBy/Limit on terminals that have no row
// stream to order (aggregates, joins, annotated scans).
func (c *Compiled) noOrdering(terminal string) error {
	if c.Ordered() || c.plan.Limit > 0 {
		return fmt.Errorf("%w: OrderBy/Limit do not apply to %s", core.ErrBadQuery, terminal)
	}
	return nil
}

// orderCmp returns the comparator over emitted records implied by the
// plan: ascending (or descending) by the order column, with NaN
// ordering below every number.
func (c *Compiled) orderCmp() func(a, b *record.Record) int {
	idx := c.orderIdx
	var cmp func(a, b *record.Record) int
	switch c.proto.Out().Column(idx).Type {
	case record.Float64:
		cmp = func(a, b *record.Record) int {
			return cmpFloatOrder(a.GetFloat64(idx), b.GetFloat64(idx))
		}
	case record.Bytes:
		cmp = func(a, b *record.Record) int {
			return bytes.Compare(a.GetBytes(idx), b.GetBytes(idx))
		}
	default:
		cmp = func(a, b *record.Record) int {
			return cmpI(a.Get(idx), b.Get(idx))
		}
	}
	if c.plan.OrderDesc {
		inner := cmp
		cmp = func(a, b *record.Record) int { return -inner(a, b) }
	}
	return cmp
}

// cmpFloatOrder is the total order behind OrderBy on Float64 columns:
// NaN sorts below every number (and equal to itself), so the
// comparator stays a strict weak ordering — cmpF alone would answer 0
// for NaN against anything and give sort/heap an inconsistent order.
func cmpFloatOrder(a, b float64) int {
	aNaN, bNaN := math.IsNaN(a), math.IsNaN(b)
	switch {
	case aNaN && bNaN:
		return 0
	case aNaN:
		return -1
	case bNaN:
		return +1
	}
	return cmpF(a, b)
}

// EmitRows runs the plan's row terminal — the single-version scan, or
// the multi-branch scan when the plan names several branches — with
// OrderBy/Limit applied.
func (c *Compiled) EmitRows(ctx context.Context, fn core.ScanFunc) error {
	if err := c.rowShape("Rows", false); err != nil {
		return err
	}
	kind := c.shape()
	if _, point := c.pointPK(); point && kind != core.ScanKindMulti {
		return c.Scan(ctx, fn)
	}
	return c.emitRows(ctx, c.request(kind), fn)
}

// EmitDiffRows runs the plan's positive-diff terminal with
// OrderBy/Limit applied. Its partition walks A AND NOT B, so only the
// rows the diff returns are read: no slot live in B alone is visited.
func (c *Compiled) EmitDiffRows(ctx context.Context, fn core.ScanFunc) error {
	if err := c.rowShape("Diff", true); err != nil {
		return err
	}
	return c.emitRows(ctx, c.request(core.ScanKindPositiveDiff), fn)
}

// emitRows runs one row scan of req and applies the plan's
// OrderBy/Limit to its output.
func (c *Compiled) emitRows(ctx context.Context, req core.ScanRequest, fn core.ScanFunc) error {
	limit := c.plan.Limit
	if c.Ordered() && limit > 0 {
		return c.orderedVisit(ctx, req, fn)
	}
	scan := func(f core.ScanFunc) error {
		return c.runRows(ctx, req, func(rec *record.Record, _ core.UnitAux) bool { return f(rec) })
	}
	if !c.Ordered() {
		if limit <= 0 {
			return scan(fn)
		}
		// Limit alone: stream and cut the scan short.
		n := 0
		return scan(func(rec *record.Record) bool {
			if !fn(rec) {
				return false
			}
			n++
			return n < limit
		})
	}
	// OrderBy alone: gather, then sort stably, so ties keep their
	// arrival order.
	var gathered []*record.Record
	if err := scan(func(rec *record.Record) bool {
		gathered = append(gathered, rec.Clone())
		return true
	}); err != nil {
		return err
	}
	cmp := c.orderCmp()
	sort.SliceStable(gathered, func(i, j int) bool { return cmp(gathered[i], gathered[j]) < 0 })
	for _, rec := range gathered {
		if !fn(rec) {
			return nil
		}
	}
	return nil
}
