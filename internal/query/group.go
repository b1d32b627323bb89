package query

// Aggregation: one fold for the scalar and the grouped terminals. A
// Plan with GroupCols buckets the scanned rows by the named columns and
// folds per-group aggregates in one streaming pass — bounded hash
// aggregation: the state is one accumulator per distinct group, never
// the rows themselves. A scalar aggregate (Count, Sum, Min, Max, Avg)
// is the same fold with no group columns: one group, kept out of the
// hash map so a row costs no lookup. The fold reads the source schema
// (a projection would only copy each row) and rides the parallel
// executor as one partial fold per scan unit, merged in unit order
// (MADlib's transition/merge/final triple: observe, mergeFrom, value).
//
// Groups emit in first-arrival order — the order the sequential scan
// first sees each distinct key. The parallel merge visits unit partials
// in unit order and appends unseen keys as it goes, which reproduces
// exactly that order (units partition the scan in sequential order).
// Count, integer Sum, Min and Max merge exactly; a parallel float
// Sum/Avg associates additions differently than the sequential fold,
// so it can differ in the last ulps on data where addition order
// matters (exact on the binary fractions the tests use).

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"decibel/internal/core"
	"decibel/internal/record"
)

// AggKind selects an aggregate.
type AggKind uint8

// Aggregate kinds.
const (
	AggCount AggKind = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

// aggNames spells each kind the way the wire protocol's agg/aggs and
// the CLI's -agg name it.
var aggNames = [...]string{AggCount: "count", AggSum: "sum", AggMin: "min", AggMax: "max", AggAvg: "avg"}

// AggKindNamed returns the kind an aggregate name (count, sum, min, max
// or avg) spells; ok is false for any other name.
func AggKindNamed(name string) (kind AggKind, ok bool) {
	for k, n := range aggNames {
		if n == name {
			return AggKind(k), true
		}
	}
	return 0, false
}

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
// plan they resolve in the table schema; for a join-composed plan they
// resolve across the relations' output schemas in declaration order,
// first match wins.
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
// column — a table-schema index, or for join plans an output-schema
// index of the relation rel.
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

// groupFold is the aggregation state: one accumulator per distinct
// key, plus the first-arrival order the groups emit in. The parallel
// path runs one fold per scan unit and merges them in unit order,
// reproducing the sequential fold's emission exactly.
type groupFold struct {
	keys  []groupKeyCol
	aggs  []groupAggCol
	m     map[string]*groupAcc
	order []string
	buf   []byte
	// all is a fold's one group when it has no key columns (a scalar
	// aggregate), once the first row created it.
	all *groupAcc
}

// groupAcc is one group's accumulator: the decoded key values and one
// partial per aggregate.
type groupAcc struct {
	key   []any
	parts []aggPart
}

// aggPart is one aggregate's partial over one group: a whole
// sequential scan's, or one pooled unit's.
type aggPart struct {
	n          int
	isum       int64
	fsum       float64
	fmin, fmax float64
}

func newGroupFold(keys []groupKeyCol, aggs []groupAggCol) *groupFold {
	return &groupFold{keys: keys, aggs: aggs, m: make(map[string]*groupAcc)}
}

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
	acc := g.all
	if acc == nil {
		g.buf = g.buf[:0]
		for _, k := range g.keys {
			g.buf = g.encodeKey(g.buf, k, pick(k.rel))
		}
		if acc = g.m[string(g.buf)]; acc == nil {
			acc = &groupAcc{key: make([]any, len(g.keys)), parts: make([]aggPart, len(g.aggs))}
			for i, k := range g.keys {
				acc.key[i] = keyValue(k, pick(k.rel))
			}
			key := string(g.buf)
			g.m[key] = acc
			g.order = append(g.order, key)
		}
		if len(g.keys) == 0 {
			g.all = acc
		}
	}
	// The transition step, inline: it runs once per aggregate per row.
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

// merge folds a later partial into a running one.
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

// value is the aggregate's result over a non-empty partial.
func (p *aggPart) value(a groupAggCol) float64 {
	switch a.kind {
	case AggCount:
		return float64(p.n)
	case AggSum:
		if a.isFloat {
			return p.fsum
		}
		return float64(p.isum)
	case AggAvg:
		if a.isFloat {
			return p.fsum / float64(p.n)
		}
		return float64(p.isum) / float64(p.n)
	case AggMin:
		return p.fmin
	}
	return p.fmax
}

// emit replays the groups in first-arrival order. A group exists only
// once a row arrived, so Min/Max/Avg never fold an empty group.
func (g *groupFold) emit(fn func(*GroupRow) bool) {
	for _, key := range g.order {
		acc := g.m[key]
		row := &GroupRow{Key: acc.key, Aggs: make([]float64, len(g.aggs))}
		for i, a := range g.aggs {
			row.Aggs[i] = acc.parts[i].value(a)
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

// fold runs the plan's scan shape (single-version, historical,
// multi-branch — each record live in any head once — or a composed
// join) through one fold of the plan's group columns and aggs.
func (c *Compiled) fold(ctx context.Context, aggs []groupAggCol) (*groupFold, error) {
	keys := make([]groupKeyCol, len(c.groupIdx))
	for i, col := range c.groupIdx {
		if c.join != nil {
			rel := c.groupRels[i]
			keys[i] = groupKeyCol{rel: rel, col: col, typ: c.join.rels[rel].OutSchema().Column(col).Type}
		} else {
			keys[i] = groupKeyCol{col: col, typ: c.schema.Column(col).Type}
		}
	}
	fold := newGroupFold(keys, aggs)
	if c.join != nil {
		return fold, c.join.run(ctx, c.plan.NoReorder, func(t JoinTuple) bool { fold.addTuple(t); return true })
	}
	// The spec carries only the predicate and its pruning bounds: a
	// Select projection constrains the group columns at compile time but
	// does not restrict what the fold reads. The fold keeps no row, so
	// the spec is Transient.
	spec, err := core.NewScanSpecAt(c.table.History(), c.epoch, c.pred, nil)
	if err != nil {
		return nil, err
	}
	spec.SetBounds(c.bounds)
	spec.Transient()
	// One fold, two drivers: in order straight into the total, or one
	// fold per pooled unit merged in unit order — first-arrival emission
	// order is preserved exactly either way.
	return fold, c.run(ctx, c.request(c.shape()), spec,
		func(rec *record.Record, _ core.UnitAux) bool { fold.add(rec); return true },
		func(int, int) core.UnitSink {
			p := newGroupFold(keys, aggs)
			return core.UnitSink{
				Fn:    func(rec *record.Record, _ core.UnitAux) bool { p.add(rec); return true },
				Flush: func() bool { fold.mergeFrom(p); return true },
			}
		})
}

// GroupScan executes the grouped aggregation: one streaming pass over
// the plan's scan shape, emitting one GroupRow per distinct key in
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
	fold, err := c.fold(ctx, acols)
	if err != nil {
		return err
	}
	fold.emit(fn)
	return nil
}

// Aggregate folds one numeric column (ignored for AggCount) over the
// plan's scan — single-version, historical, or multi-branch (where
// each record live in any head counts once) — as the fold with no
// group columns. Count is the one scalar fold over a join-composed
// query (the number of joined tuples); a diff is counted by running its
// Diff terminal. Empty Min/Max/Avg fail with core.ErrNoRows. Integer
// columns are accumulated as int64 and converted on return.
func (c *Compiled) Aggregate(ctx context.Context, kind AggKind, col string) (float64, error) {
	if err := c.noOrdering("aggregates"); err != nil {
		return 0, err
	}
	switch {
	case len(c.plan.GroupCols) > 0:
		return 0, fmt.Errorf("%w: scalar aggregates do not apply to a grouped query; use Groups", core.ErrBadQuery)
	case c.plan.Diff:
		return 0, fmt.Errorf("%w: scalar aggregates do not apply to a diff; count its Diff rows", core.ErrBadQuery)
	case c.join != nil && kind != AggCount:
		return 0, fmt.Errorf("%w: only Count folds over a join-composed query; use Groups for per-group aggregates", core.ErrBadQuery)
	}
	a, err := c.resolveAggCol(AggSpec{Kind: kind, Col: col})
	if err != nil {
		return 0, err
	}
	fold, err := c.fold(ctx, []groupAggCol{a})
	if err != nil {
		return 0, err
	}
	if len(fold.order) == 0 {
		if kind == AggCount || kind == AggSum {
			return 0, nil
		}
		return 0, fmt.Errorf("%w: %s over empty scan", core.ErrNoRows, col)
	}
	return fold.m[fold.order[0]].parts[0].value(a), nil
}
