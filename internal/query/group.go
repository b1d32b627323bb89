package query

// Grouped aggregation. A Plan with GroupCols buckets the scanned rows
// by the named columns and folds per-group aggregates in one streaming
// pass — bounded hash aggregation: the state is one accumulator per
// distinct group, never the rows themselves. The fold pushes its own
// projection into the scan's ScanSpec (only the group and aggregate
// columns are decoded) and rides the parallel executor the same way
// scalar aggregates do: per-worker partial folds merged in unit order,
// so the parallel stream is byte-identical to the sequential one.
//
// Groups emit in first-arrival order — the order the sequential scan
// first sees each distinct key. The parallel merge visits unit partials
// in unit order and appends unseen keys as it goes, which reproduces
// exactly that order (units partition the scan in sequential order).
// The one caveat is inherited from scalar aggregates: a parallel float
// Sum/Avg associates additions differently and can differ in the last
// ulps on data where addition order matters.

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"decibel/internal/core"
	"decibel/internal/record"
)

// AggSpec names one grouped aggregate: the fold kind and, for every
// kind but AggCount, the column it folds.
type AggSpec struct {
	Kind AggKind
	Col  string
}

// GroupRow is one group of a grouped aggregation: the group-by column
// values (int64, float64 or []byte, in GroupBy order) and one result
// per requested aggregate, in request order. Aggregates are float64
// like the scalar terminals; integer sums convert on emission.
type GroupRow struct {
	Key  []any
	Aggs []float64
}

// compileGroupBy resolves the plan's GroupCols. For a single-table
// plan they resolve in the table schema (the fold projects them into
// its own spec); for a join-composed plan they resolve across the
// relations' output schemas in declaration order, first match wins.
func (c *Compiled) compileGroupBy() error {
	p := c.plan
	if p.OrderCol != "" || p.Limit > 0 {
		return fmt.Errorf("%w: OrderBy/Limit do not apply to a grouped query; groups emit in first-arrival order", core.ErrBadQuery)
	}
	seen := make(map[string]bool, len(p.GroupCols))
	for _, name := range p.GroupCols {
		if seen[name] {
			return fmt.Errorf("%w: duplicate GroupBy column %q", core.ErrBadQuery, name)
		}
		seen[name] = true
	}
	c.groupIdx = make([]int, len(p.GroupCols))
	if c.join != nil {
		c.groupRels = make([]int, len(p.GroupCols))
		for i, name := range p.GroupCols {
			ri, ci, _, err := findJoinCol(c.join.rels, name)
			if err != nil {
				return err
			}
			c.groupRels[i] = ri
			c.groupIdx[i] = ci
		}
		return nil
	}
	scope := colScope{schema: c.schema, hist: c.table.History(), epoch: c.epoch}
	for i, name := range p.GroupCols {
		ci := c.schema.ColumnIndex(name)
		if ci < 0 {
			return scope.missing(name)
		}
		if c.cols != nil && c.proto.Out().ColumnIndex(name) < 0 {
			return fmt.Errorf("%w: GroupBy column %q is not part of the Select projection", core.ErrBadQuery, name)
		}
		c.groupIdx[i] = ci
	}
	return nil
}

// groupAggCol is one resolved aggregate: its fold kind and the source
// column — an output-schema index (plus, for join plans, the relation
// it lives in).
type groupAggCol struct {
	kind    AggKind
	rel     int // relation index; 0 for single-table plans
	col     int
	isFloat bool
}

// groupKeyCol is one resolved group-by column.
type groupKeyCol struct {
	rel int
	col int
	typ record.Type
}

// groupFold is the bounded hash-aggregation state: one accumulator per
// distinct key, plus the first-arrival order the groups emit in. The
// parallel path runs one fold per scan unit and merges them in unit
// order, reproducing the sequential fold's emission exactly.
type groupFold struct {
	keys  []groupKeyCol
	aggs  []groupAggCol
	m     map[string]*groupAcc
	order []string
	buf   []byte
}

// groupAcc is one group's accumulator: the decoded key values and one
// scalar partial per aggregate.
type groupAcc struct {
	key   []any
	parts []aggPart
}

func newGroupFold(keys []groupKeyCol, aggs []groupAggCol) *groupFold {
	return &groupFold{keys: keys, aggs: aggs, m: make(map[string]*groupAcc)}
}

// fresh clones the fold's configuration with empty state — one per
// parallel scan unit.
func (g *groupFold) fresh() *groupFold { return newGroupFold(g.keys, g.aggs) }

// encodeKey appends column k's value from rec to the hash key.
func (g *groupFold) encodeKey(buf []byte, k groupKeyCol, rec *record.Record) []byte {
	switch k.typ {
	case record.Float64:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.GetFloat64(k.col)))
	case record.Bytes:
		b := rec.GetBytes(k.col)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
		buf = append(buf, b...)
	default:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.Get(k.col)))
	}
	return buf
}

// keyValue decodes column k's value from rec for the emitted GroupRow.
func keyValue(k groupKeyCol, rec *record.Record) any {
	switch k.typ {
	case record.Float64:
		return rec.GetFloat64(k.col)
	case record.Bytes:
		return append([]byte(nil), rec.GetBytes(k.col)...)
	default:
		return rec.Get(k.col)
	}
}

// observe folds one row into its group. pick maps a key or aggregate
// column to the record holding it — identity for single-table scans,
// tuple indexing for joins.
func (g *groupFold) observe(pick func(rel int) *record.Record) {
	g.buf = g.buf[:0]
	for _, k := range g.keys {
		g.buf = g.encodeKey(g.buf, k, pick(k.rel))
	}
	acc := g.m[string(g.buf)]
	if acc == nil {
		acc = &groupAcc{key: make([]any, len(g.keys)), parts: make([]aggPart, len(g.aggs))}
		for i, k := range g.keys {
			acc.key[i] = keyValue(k, pick(k.rel))
		}
		key := string(g.buf)
		g.m[key] = acc
		g.order = append(g.order, key)
	}
	// aggPart.add, spelled out: it is too big to inline, and this loop
	// runs once per aggregate per row.
	for i, a := range g.aggs {
		p := &acc.parts[i]
		p.n++
		if a.kind == AggCount {
			continue
		}
		rec := pick(a.rel)
		var v float64
		if a.isFloat {
			v = rec.GetFloat64(a.col)
			p.fsum += v
		} else {
			iv := rec.Get(a.col)
			p.isum += iv
			v = float64(iv)
		}
		if p.n == 1 || v < p.fmin {
			p.fmin = v
		}
		if p.n == 1 || v > p.fmax {
			p.fmax = v
		}
	}
}

// add folds one single-table row.
func (g *groupFold) add(rec *record.Record) {
	g.observe(func(int) *record.Record { return rec })
}

// addTuple folds one joined tuple.
func (g *groupFold) addTuple(t JoinTuple) {
	g.observe(func(rel int) *record.Record { return t[rel] })
}

// mergeFrom folds a later unit's partial into the running total,
// appending keys the total has not seen in the partial's own arrival
// order — with units visited in unit order this reproduces the
// sequential first-arrival order.
func (g *groupFold) mergeFrom(p *groupFold) {
	for _, key := range p.order {
		src := p.m[key]
		dst := g.m[key]
		if dst == nil {
			g.m[key] = src
			g.order = append(g.order, key)
			continue
		}
		for i := range dst.parts {
			dst.parts[i].merge(&src.parts[i])
		}
	}
}

// emit replays the groups in first-arrival order. A group exists only
// once a row arrived, so Min/Max/Avg never fold an empty group.
func (g *groupFold) emit(fn func(*GroupRow) bool) {
	for _, key := range g.order {
		acc := g.m[key]
		row := &GroupRow{Key: acc.key, Aggs: make([]float64, len(g.aggs))}
		for i, a := range g.aggs {
			p := &acc.parts[i]
			switch a.kind {
			case AggCount:
				row.Aggs[i] = float64(p.n)
			case AggSum:
				if a.isFloat {
					row.Aggs[i] = p.fsum
				} else {
					row.Aggs[i] = float64(p.isum)
				}
			case AggAvg:
				if a.isFloat {
					row.Aggs[i] = p.fsum / float64(p.n)
				} else {
					row.Aggs[i] = float64(p.isum) / float64(p.n)
				}
			case AggMin:
				row.Aggs[i] = p.fmin
			default:
				row.Aggs[i] = p.fmax
			}
		}
		if !fn(row) {
			return
		}
	}
}

// resolveAggCol validates one aggregate's kind and source column. For
// single-table plans the column resolves in the table schema; for join
// plans across the relations' output schemas.
func (c *Compiled) resolveAggCol(a AggSpec) (groupAggCol, error) {
	if a.Kind > AggAvg {
		return groupAggCol{}, fmt.Errorf("%w: unknown aggregate kind %d", core.ErrBadQuery, a.Kind)
	}
	if a.Kind == AggCount {
		return groupAggCol{kind: AggCount}, nil
	}
	var t record.Type
	out := groupAggCol{kind: a.Kind}
	if c.join != nil {
		ri, ci, ct, err := findJoinCol(c.join.rels, a.Col)
		if err != nil {
			return groupAggCol{}, err
		}
		out.rel, out.col, t = ri, ci, ct
	} else {
		ci := c.schema.ColumnIndex(a.Col)
		if ci < 0 {
			return groupAggCol{}, (colScope{schema: c.schema, hist: c.table.History(), epoch: c.epoch}).missing(a.Col)
		}
		out.col, t = ci, c.schema.Column(ci).Type
	}
	switch t {
	case record.Int32, record.Int64:
	case record.Float64:
		out.isFloat = true
	default:
		return groupAggCol{}, fmt.Errorf("%w: aggregate over %v column %q", core.ErrTypeMismatch, t, a.Col)
	}
	return out, nil
}

// GroupScan executes the grouped aggregation: one streaming pass over
// the plan's scan shape (single-version, historical, multi-branch, or
// a composed join), emitting one GroupRow per distinct key in
// first-arrival order. With no aggregates requested it degenerates to
// DISTINCT over the group columns (every Aggs slice empty).
func (c *Compiled) GroupScan(ctx context.Context, aggs []AggSpec, fn func(*GroupRow) bool) error {
	if len(c.plan.GroupCols) == 0 {
		return fmt.Errorf("%w: Groups needs a GroupBy clause", core.ErrBadQuery)
	}
	acols := make([]groupAggCol, len(aggs))
	for i, a := range aggs {
		ac, err := c.resolveAggCol(a)
		if err != nil {
			return err
		}
		acols[i] = ac
	}

	if c.join != nil {
		keys := make([]groupKeyCol, len(c.groupIdx))
		for i := range c.groupIdx {
			rel, col := c.groupRels[i], c.groupIdx[i]
			keys[i] = groupKeyCol{rel: rel, col: col, typ: c.join.rels[rel].OutSchema().Column(col).Type}
		}
		fold := newGroupFold(keys, acols)
		if err := c.join.run(ctx, c.plan.NoReorder, func(t JoinTuple) bool { fold.addTuple(t); return true }); err != nil {
			return err
		}
		fold.emit(fn)
		return nil
	}

	// The fold reads exactly the group and aggregate columns, so the
	// scan spec projects them (plus the always-kept pk) and nothing
	// else — engines with column stores decode only what the fold
	// touches. The user's Select does not widen this: it constrains the
	// group columns at compile time but the fold owns its projection,
	// like scalar aggregates do.
	proj := make([]int, 0, len(c.groupIdx)+len(acols))
	seen := make(map[int]bool, cap(proj))
	for _, ci := range c.groupIdx {
		if !seen[ci] {
			seen[ci] = true
			proj = append(proj, ci)
		}
	}
	for _, a := range acols {
		if a.kind != AggCount && !seen[a.col] {
			seen[a.col] = true
			proj = append(proj, a.col)
		}
	}
	spec, err := core.NewScanSpecAt(c.table.History(), c.epoch, c.pred, proj)
	if err != nil {
		return err
	}
	spec.SetBounds(c.bounds)
	out := spec.Out()

	keys := make([]groupKeyCol, len(c.groupIdx))
	for i, ci := range c.groupIdx {
		name := c.schema.Column(ci).Name
		keys[i] = groupKeyCol{col: out.ColumnIndex(name), typ: c.schema.Column(ci).Type}
	}
	for i := range acols {
		if acols[i].kind == AggCount {
			continue
		}
		acols[i].col = out.ColumnIndex(c.schema.Column(acols[i].col).Name)
	}

	// One fold, two drivers: in order straight into the total, or one
	// fold per pooled unit merged in unit order — first-arrival emission
	// order is preserved exactly either way.
	fold := newGroupFold(keys, acols)
	err = c.run(ctx, c.request(c.shape()), spec,
		func(rec *record.Record, _ core.UnitAux) bool { fold.add(rec); return true },
		func(int, int) core.UnitSink {
			p := fold.fresh()
			return core.UnitSink{
				Fn:    func(rec *record.Record, _ core.UnitAux) bool { p.add(rec); return true },
				Flush: func() bool { fold.mergeFrom(p); return true },
			}
		})
	if err != nil {
		return err
	}
	fold.emit(fn)
	return nil
}
