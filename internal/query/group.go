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
//
// A fold over a single table with no key or one Int32, Int64 or
// Float64 key also takes the dcz pages stored in its layout whole
// (AddPage, core.PageSink): it reads the key and aggregate columns from
// the page's dict, const and raw planes, and a delta column from the
// rows at its offset, 64 selected rows and one column at a time,
// without visiting a row. Groups still open in first-arrival order and
// each group's float sum still adds in slot order, so both paths give
// one answer. Heap pages, converted layouts, joins and Bytes or
// multi-column keys take the row path.

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"decibel/internal/core"
	"decibel/internal/record"
	"decibel/internal/store"
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
	return loadBits(b[r.off:], r.width())
}

// width is a numeric column's width in the record.
func (r colHandle) width() int {
	if r.typ == record.Int32 {
		return 4
	}
	return 8
}

// loadBits reads the value of a numeric column of the given width from
// the front of b as its raw bits (colHandle.bits).
func loadBits(b []byte, width int) uint64 {
	if width == 4 {
		return uint64(int32(binary.LittleEndian.Uint32(b)))
	}
	return binary.LittleEndian.Uint64(b)
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

// decode reads the column's value for an emitted GroupRow from the
// front of an encoded key (encode), aliasing it, and returns the rest
// of the key. An empty Bytes value is nil.
func (r colHandle) decode(enc []byte) (any, []byte) {
	if r.typ != record.Bytes {
		return r.value(binary.LittleEndian.Uint64(enc)), enc[8:]
	}
	n := int(binary.LittleEndian.Uint32(enc))
	if n == 0 {
		return []byte(nil), enc[4:]
	}
	return enc[4 : 4+n : 4+n], enc[4+n:]
}

// value is a numeric column's value, from its raw bits, for an emitted
// GroupRow.
func (r colHandle) value(v uint64) any {
	if r.typ == record.Float64 {
		return math.Float64frombits(v)
	}
	return int64(v)
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
// encoding, which each new group copies once into slab: the key
// table's string and the group's emitted key values point into it. A
// fold with no key columns (a scalar aggregate) has one group and no
// table.
type groupFold struct {
	keys  []colHandle
	aggs  []groupAggCol
	bits  map[uint64]int32
	strs  map[string]int32
	buf   []byte
	slab  []byte
	n     []int64
	key   []any
	parts []aggPart
	one   [1]*record.Record // a single-table row as a one-relation row

	// recSize is a single table's record size, which AddPage reads a
	// column inside the page's rows by; cols are AddPage's views of
	// the current page's aggregate columns, then its key column.
	recSize int
	cols    []pageCol
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
	var gi int32
	switch {
	case g.bits != nil:
		k := g.keys[0]
		v := k.bits(row[k.rel].Bytes())
		i, ok := g.bits[v]
		if !ok {
			g.key = append(g.key, k.value(v))
			i = g.rowGroup(row)
			g.bits[v] = i
		}
		gi = i
	case g.strs != nil:
		g.buf = g.buf[:0]
		for _, k := range g.keys {
			g.buf = k.encode(g.buf, row[k.rel].Bytes())
		}
		i, ok := g.strs[string(g.buf)]
		if !ok {
			i = g.keyGroup(row)
		}
		gi = i
	case len(g.n) == 0:
		g.rowGroup(row)
	}
	g.n[gi]++
	parts := g.parts[int(gi)*len(g.aggs) : (int(gi)+1)*len(g.aggs)]
	// The transition step, inline: it runs once per aggregate per row.
	for i := range g.aggs {
		a, p := &g.aggs[i], &parts[i]
		if a.kind == AggCount {
			continue
		}
		v := a.col.bits(row[a.col.rel].Bytes())
		switch {
		case a.kind == AggMin:
			if f := a.num(v); f < p.f {
				p.f = f
			}
		case a.kind == AggMax:
			if f := a.num(v); f > p.f {
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

// newGroup opens the next group, whose key values are already in g.key.
// Its Min and Max states start at the value of the row that opens it,
// value(i) for aggregate i, so a later row replaces one only by
// comparing (NaN included) as it would have with the opening row.
func (g *groupFold) newGroup(value func(i int) uint64) int32 {
	g.n = append(g.n, 0)
	for i := range g.aggs { // not append(g.parts, make(...)...): under -race that allocates the make
		var p aggPart
		if a := &g.aggs[i]; a.kind == AggMin || a.kind == AggMax {
			p.f = a.num(value(i))
		}
		g.parts = append(g.parts, p)
	}
	return int32(len(g.n) - 1)
}

// rowGroup opens the next group at row.
func (g *groupFold) rowGroup(row []*record.Record) int32 {
	return g.newGroup(func(i int) uint64 {
		c := g.aggs[i].col
		return c.bits(row[c.rel].Bytes())
	})
}

// keyGroup opens the next group at row for the encoded key in g.buf:
// the key is copied once into the slab, which the key table's string
// and the group's key values alias. The slab's bytes are never written
// again: a longer slab is a new array.
func (g *groupFold) keyGroup(row []*record.Record) int32 {
	at := len(g.slab)
	g.slab = append(g.slab, g.buf...)
	enc := g.slab[at:len(g.slab):len(g.slab)]
	rest := enc
	for _, k := range g.keys {
		var v any
		v, rest = k.decode(rest)
		g.key = append(g.key, v)
	}
	i := g.rowGroup(row)
	g.strs[unsafe.String(unsafe.SliceData(enc), len(enc))] = i
	return i
}

// pageCol is one key or aggregate column of the dcz page a fold takes
// whole, read as the page block stored it: a dict plane's codes and
// values, a const plane's value, a raw plane's column, or — for a
// delta-encoded column, which keeps no plane — the column inside the
// page's rows.
type pageCol struct {
	codes  []byte // dict: row r holds value codes[r]
	values []byte // dict and const: the plane's values, width bytes each
	col    []byte // raw and delta: row r's value at col[r*stride:]
	stride int
	width  int
}

// use points c at column h of pg, whose records are recSize bytes.
func (c *pageCol) use(pg *store.Page, h colHandle, recSize int) {
	*c = pageCol{width: h.width()}
	switch pl, raw := pg.Column(h.off, c.width); {
	case pl == nil:
		c.col, c.stride = pg.Rows[h.off:], recSize
	case raw:
		c.col, c.stride = pl.Values, c.width
	default:
		c.codes, c.values = pl.Codes, pl.Values
	}
}

// at is row r's value as its raw bits (colHandle.bits).
func (c *pageCol) at(r int) uint64 {
	switch {
	case c.codes != nil:
		return loadBits(c.values[int(c.codes[r])*c.width:], c.width)
	case c.col == nil:
		return loadBits(c.values, c.width)
	}
	return loadBits(c.col[r*c.stride:], c.width)
}

// gather loads the values of rows into dst, one column at a time.
func (c *pageCol) gather(rows []int32, dst []uint64) {
	switch {
	case c.codes != nil:
		for j, r := range rows {
			dst[j] = loadBits(c.values[int(c.codes[r])*c.width:], c.width)
		}
	case c.col == nil:
		v := loadBits(c.values, c.width)
		for j := range rows {
			dst[j] = v
		}
	default:
		for j, r := range rows {
			dst[j] = loadBits(c.col[int(r)*c.stride:], c.width)
		}
	}
}

// AddPage folds the rows sel selects of a single table's dcz page, 64
// at a time and a column at a time, without visiting a row
// (core.PageSink). A single key column maps each dict code of the page
// to its group once, in row order, so groups still open in
// first-arrival order; every group's aggregates take its rows in slot
// order, so a float sum adds exactly as the row path does. Only a fold
// with no key columns or a single Int32, Int64 or Float64 one takes
// pages.
func (g *groupFold) AddPage(pg *store.Page, sel []uint64) bool {
	na := len(g.aggs)
	if g.cols == nil {
		g.cols = make([]pageCol, na+1)
	}
	for i := range g.aggs {
		if g.aggs[i].kind != AggCount {
			g.cols[i].use(pg, g.aggs[i].col, g.recSize)
		}
	}
	kc := &g.cols[na]
	var codeGroup [256]int32 // a dict key's group per code; -1 until its first row
	if g.bits != nil {
		kc.use(pg, g.keys[0], g.recSize)
		for c := 0; c*kc.width < len(kc.values); c++ {
			codeGroup[c] = -1
		}
	}
	var rows, gids [64]int32
	var vals [64]uint64
	for wi, w := range sel {
		n := 0
		for ; w != 0; w &= w - 1 {
			rows[n] = int32(wi*64 + bits.TrailingZeros64(w))
			n++
		}
		if n == 0 {
			continue
		}
		rs, gs := rows[:n], gids[:n]
		switch {
		case g.bits == nil:
			if len(g.n) == 0 {
				g.pageGroup(int(rs[0]))
			}
			clear(gs)
		case kc.codes != nil:
			for j, r := range rs {
				c := kc.codes[r]
				if codeGroup[c] < 0 {
					codeGroup[c] = g.keyBitsGroup(kc.at(int(r)), int(r))
				}
				gs[j] = codeGroup[c]
			}
		default:
			for j, r := range rs {
				gs[j] = g.keyBitsGroup(kc.at(int(r)), int(r))
			}
		}
		for _, gi := range gs {
			g.n[gi]++
		}
		for i := range g.aggs {
			a := &g.aggs[i]
			if a.kind == AggCount {
				continue
			}
			vs := vals[:n]
			g.cols[i].gather(rs, vs)
			parts := g.parts[i:] // group gi's state at parts[gi*na]
			switch {
			case a.kind == AggMin:
				for j, v := range vs {
					if p, f := &parts[int(gs[j])*na], a.num(v); f < p.f {
						p.f = f
					}
				}
			case a.kind == AggMax:
				for j, v := range vs {
					if p, f := &parts[int(gs[j])*na], a.num(v); f > p.f {
						p.f = f
					}
				}
			case a.isFloat:
				for j, v := range vs {
					parts[int(gs[j])*na].f += math.Float64frombits(v)
				}
			default:
				for j, v := range vs {
					parts[int(gs[j])*na].i += int64(v)
				}
			}
		}
	}
	return true
}

// keyBitsGroup returns the group of a single numeric key's raw bits v,
// opening it at row r of the current page when v is new.
func (g *groupFold) keyBitsGroup(v uint64, r int) int32 {
	i, ok := g.bits[v]
	if !ok {
		g.key = append(g.key, g.keys[0].value(v))
		i = g.pageGroup(r)
		g.bits[v] = i
	}
	return i
}

// pageGroup opens the next group at row r of the current page.
func (g *groupFold) pageGroup(r int) int32 {
	return g.newGroup(func(i int) uint64 { return g.cols[i].at(r) })
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
	var pages core.PageSink
	if fold.strs == nil {
		fold.recSize, pages = c.schema.RecordSize(), fold
	}
	return fold, c.table.ScanUnitsContext(ctx, c.request(c.shape()), spec, c, pages,
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
