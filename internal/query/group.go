package query

// Aggregation: one fold for the scalar and the grouped terminals. A
// Plan with GroupCols buckets the scanned rows by the named columns and
// folds per-group aggregates in one streaming pass — bounded hash
// aggregation: the state is one row count and one window of aggregate
// states per distinct group, never the rows themselves. Key and
// aggregate columns are resolved once per query into handles (relation,
// byte offset, type) against the schema the rows arrive in, and read
// straight from each record's bytes: the source schema for a single
// table, whose rows the fold takes as one-relation tuples (a
// projection would only copy each row), each relation's output schema
// for a join. A single integer or float key finds its group number by
// its raw bits, any other key by its encoding. A scalar aggregate
// (Count, Sum, Min, Max, Avg) is the same fold with no group columns:
// one group and no table, so a row costs no lookup. Groups emit in
// first-arrival order — the order the scan first sees each distinct
// key — and a float Sum/Avg adds in scan order, so a query has one
// answer.

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

// compileGroupBy resolves the plan's GroupCols to column handles.
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
	c.groupKeys = make([]colHandle, len(p.GroupCols))
	for i, name := range p.GroupCols {
		ref, err := c.colNamed(name)
		if err != nil {
			return err
		}
		if c.join == nil && c.cols != nil && c.proto.Out().ColumnIndex(name) < 0 {
			return fmt.Errorf("%w: GroupBy column %q is not part of the Select projection", core.ErrBadQuery, name)
		}
		c.groupKeys[i] = ref
	}
	return nil
}

// colNamed resolves a key or aggregate column to its handle: in the
// table schema for a single-table plan, across the relations' output
// schemas (declaration order, first match wins) for a join-composed
// one.
func (c *Compiled) colNamed(name string) (colHandle, error) {
	if c.join != nil {
		ri, ci, _, err := findJoinCol(c.join.rels, name)
		if err != nil {
			return colHandle{}, err
		}
		return handleOf(ri, c.join.rels[ri].OutSchema(), ci), nil
	}
	ci := c.schema.ColumnIndex(name)
	if ci < 0 {
		return colHandle{}, (colScope{schema: c.schema, hist: c.table.History(), epoch: c.epoch}).missing(name)
	}
	return handleOf(0, c.schema, ci), nil
}

// colHandle is one key or aggregate column resolved against the schema
// its records arrive in: the relation of a row (0 for a single table,
// whose one record is a one-relation row), the column's byte offset in
// the encoded record, its type, and a Bytes column's capacity. The fold
// reads a column straight from rec.Bytes() through it.
type colHandle struct {
	rel  int
	off  int
	typ  record.Type
	size int
}

func handleOf(rel int, s *record.Schema, ci int) colHandle {
	c := s.Column(ci)
	return colHandle{rel: rel, off: s.ColumnOffset(ci), typ: c.Type, size: c.Size}
}

// bits is an Int32, Int64 or Float64 column's value as its 8 raw bits:
// an Int32 sign-extended, a Float64 as stored (math.Float64bits).
func (r colHandle) bits(b []byte) uint64 {
	if r.typ == record.Int32 {
		return uint64(int32(binary.LittleEndian.Uint32(b[r.off:])))
	}
	return binary.LittleEndian.Uint64(b[r.off:])
}

// bytes is a Bytes column's value, aliasing b.
func (r colHandle) bytes(b []byte) []byte {
	n := min(int(binary.LittleEndian.Uint16(b[r.off:])), r.size) // clamp a corrupt length prefix
	return b[r.off+2 : r.off+2+n]
}

// encode appends the column's value to a group key.
func (r colHandle) encode(buf, b []byte) []byte {
	if r.typ == record.Bytes {
		v := r.bytes(b)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
		return append(buf, v...)
	}
	return binary.LittleEndian.AppendUint64(buf, r.bits(b))
}

// value decodes the column's value for an emitted GroupRow.
func (r colHandle) value(b []byte) any {
	switch r.typ {
	case record.Float64:
		return math.Float64frombits(r.bits(b))
	case record.Bytes:
		return append([]byte(nil), r.bytes(b)...)
	}
	return int64(r.bits(b))
}

// groupAggCol is one resolved aggregate: its fold kind and, for every
// kind but AggCount, its numeric source column.
type groupAggCol struct {
	kind    AggKind
	col     colHandle
	isFloat bool
}

// groupFold is the aggregation state. Groups are numbered in
// first-arrival order; group g's state is its row count n[g] (shared by
// Count and Avg), its key values key[g*len(keys):] and its aggregates'
// states parts[g*len(aggs):]. A single Int32, Int64 or Float64 key
// finds its group by the key's raw bits, any other key shape by its
// encoding, and a fold with no key columns (a scalar aggregate) has one
// group and no table.
type groupFold struct {
	keys  []colHandle
	aggs  []groupAggCol
	bits  map[uint64]int32
	strs  map[string]int32
	buf   []byte
	n     []int64
	key   []any
	parts []aggPart
	one   [1]*record.Record // a single-table row as a one-relation row
}

// aggPart is one aggregate's running state over one group: an integer
// Sum or Avg adds into i, a float one into f, and Min and Max keep the
// extreme so far in f.
type aggPart struct {
	i int64
	f float64
}

func newGroupFold(keys []colHandle, aggs []groupAggCol) *groupFold {
	g := &groupFold{keys: keys, aggs: aggs}
	switch {
	case len(keys) == 1 && keys[0].typ != record.Bytes:
		g.bits = make(map[uint64]int32)
	case len(keys) > 0:
		g.strs = make(map[string]int32)
	}
	return g
}

// add folds one row: a join tuple, or a single table's record as the
// one-relation row g.one.
func (g *groupFold) add(row []*record.Record) {
	gi := 0
	switch {
	case g.bits != nil:
		k := g.keys[0]
		v := k.bits(row[k.rel].Bytes())
		i, ok := g.bits[v]
		if !ok {
			i = g.newGroup(row)
			g.bits[v] = i
		}
		gi = int(i)
	case g.strs != nil:
		g.buf = g.buf[:0]
		for _, k := range g.keys {
			g.buf = k.encode(g.buf, row[k.rel].Bytes())
		}
		i, ok := g.strs[string(g.buf)]
		if !ok {
			i = g.newGroup(row)
			g.strs[string(g.buf)] = i
		}
		gi = int(i)
	case len(g.n) == 0:
		g.newGroup(row)
	}
	g.n[gi]++
	first := g.n[gi] == 1
	parts := g.parts[gi*len(g.aggs) : (gi+1)*len(g.aggs)]
	// The transition step, inline: it runs once per aggregate per row.
	for i := range g.aggs {
		a, p := &g.aggs[i], &parts[i]
		if a.kind == AggCount {
			continue
		}
		v := a.col.bits(row[a.col.rel].Bytes())
		switch {
		case a.kind == AggMin:
			if f := a.num(v); first || f < p.f {
				p.f = f
			}
		case a.kind == AggMax:
			if f := a.num(v); first || f > p.f {
				p.f = f
			}
		case a.isFloat:
			p.f += math.Float64frombits(v)
		default:
			p.i += int64(v)
		}
	}
}

// num is the aggregate column's value, from its raw bits, as Min and
// Max compare it.
func (a *groupAggCol) num(v uint64) float64 {
	if a.isFloat {
		return math.Float64frombits(v)
	}
	return float64(int64(v))
}

// newGroup opens the next group with row's key values.
func (g *groupFold) newGroup(row []*record.Record) int32 {
	for _, k := range g.keys {
		g.key = append(g.key, k.value(row[k.rel].Bytes()))
	}
	g.n = append(g.n, 0)
	for range g.aggs { // not append(g.parts, make(...)...): under -race that allocates the make
		g.parts = append(g.parts, aggPart{})
	}
	return int32(len(g.n) - 1)
}

// value is aggregate i's result over group gi, which is never empty.
func (g *groupFold) value(gi, i int) float64 {
	a, p, n := g.aggs[i], g.parts[gi*len(g.aggs)+i], g.n[gi]
	sum := float64(p.i)
	if a.isFloat {
		sum = p.f
	}
	switch a.kind {
	case AggCount:
		return float64(n)
	case AggSum:
		return sum
	case AggAvg:
		return sum / float64(n)
	}
	return p.f
}

// emit replays the groups in first-arrival order. A group exists only
// once a row arrived, so Min/Max/Avg never fold an empty group.
func (g *groupFold) emit(fn func(*GroupRow) bool) {
	nk, na := len(g.keys), len(g.aggs)
	rows := make([]GroupRow, len(g.n))
	aggs := make([]float64, len(g.n)*na)
	for gi := range rows {
		row := &rows[gi]
		row.Key = g.key[gi*nk : (gi+1)*nk : (gi+1)*nk]
		row.Aggs = aggs[gi*na : (gi+1)*na : (gi+1)*na]
		for i := range row.Aggs {
			row.Aggs[i] = g.value(gi, i)
		}
		if !fn(row) {
			return
		}
	}
}

// resolveAggCol validates one aggregate's kind and source column.
func (c *Compiled) resolveAggCol(a AggSpec) (groupAggCol, error) {
	if a.Kind > AggAvg {
		return groupAggCol{}, fmt.Errorf("%w: unknown aggregate kind %d", core.ErrBadQuery, a.Kind)
	}
	if a.Kind == AggCount {
		return groupAggCol{kind: AggCount}, nil
	}
	col, err := c.colNamed(a.Col)
	if err != nil {
		return groupAggCol{}, err
	}
	out := groupAggCol{kind: a.Kind, col: col}
	switch out.col.typ {
	case record.Int32, record.Int64:
	case record.Float64:
		out.isFloat = true
	default:
		return groupAggCol{}, fmt.Errorf("%w: aggregate over %v column %q", core.ErrTypeMismatch, out.col.typ, a.Col)
	}
	return out, nil
}

// fold runs the plan's scan shape (single-version, historical,
// multi-branch — each record live in any head once — or a composed
// join) through one fold of the plan's group columns and aggs. A
// single table's rows arrive in c.schema (the spec converts older
// layouts), a join's tuples in each relation's output schema: the
// schemas the column handles were resolved against.
func (c *Compiled) fold(ctx context.Context, aggs []groupAggCol) (*groupFold, error) {
	fold := newGroupFold(c.groupKeys, aggs)
	if c.join != nil {
		return fold, c.join.run(ctx, c.plan.NoReorder, func(t JoinTuple) bool { fold.add(t); return true })
	}
	// The spec carries only the predicate and its pruning bounds: a
	// Select projection constrains the group columns at compile time but
	// does not restrict what the fold reads.
	spec, err := core.NewScanSpecAt(c.table.History(), c.epoch, c.pred, nil)
	if err != nil {
		return nil, err
	}
	spec.SetBounds(c.bounds)
	return fold, c.table.ScanUnitsContext(ctx, c.request(c.shape()), spec, c,
		func(rec *record.Record, _ core.UnitAux) bool { fold.one[0] = rec; fold.add(fold.one[:]); return true })
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
// diff terminal (EmitDiffRows). Empty Min/Max/Avg fail with core.ErrNoRows. Integer
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
	if len(fold.n) == 0 {
		if kind == AggCount || kind == AggSum {
			return 0, nil
		}
		return 0, fmt.Errorf("%w: %s over empty scan", core.ErrNoRows, col)
	}
	return fold.value(0, 0), nil
}
