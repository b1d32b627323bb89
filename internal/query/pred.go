package query

// This file holds the typed, column-name-based predicates: the AST the
// query builder accepts and the compiler that turns it, at plan time,
// into a raw predicate over encoded record buffers. Compilation
// validates every column reference and value type against the table's
// catalog schema and fails with sentinel errors (core.ErrNoSuchColumn,
// core.ErrTypeMismatch) before any data is touched; the compiled form
// is what the storage engines evaluate inside their scan loops
// (core.ScanSpec.Pred).

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"decibel/internal/core"
	"decibel/internal/record"
)

// Op is a comparison operator in a predicate leaf.
type Op uint8

// Comparison operators. OpPrefix applies to Bytes columns only.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpPrefix
)

// String returns the SQL-ish spelling of the operator.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpPrefix:
		return "^="
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

type exprKind uint8

const (
	exprLeaf exprKind = iota
	exprAnd
	exprOr
	exprNot
	exprTrue
)

// Expr is a typed predicate tree over named columns. The zero value
// matches every record. Build leaves with Col and combine them with
// the And/Or/Not methods; nothing is validated until the expression is
// compiled against a table schema at plan time.
type Expr struct {
	kind exprKind
	col  string
	op   Op
	val  any
	kids []Expr
}

// Col starts a predicate on the named column.
func Col(name string) ColRef { return ColRef{name: name} }

// ColRef is a reference to a named column, turned into a predicate
// leaf by one of its comparison methods.
type ColRef struct{ name string }

// Name returns the referenced column name.
func (c ColRef) Name() string { return c.name }

func (c ColRef) leaf(op Op, v any) Expr {
	return Expr{kind: exprLeaf, col: c.name, op: op, val: v}
}

// Eq matches records whose column equals v. v may be any Go integer
// for Int32/Int64 columns, a float64 (or integer) for Float64 columns,
// or a string/[]byte for Bytes columns; mismatches fail at plan time
// with core.ErrTypeMismatch.
func (c ColRef) Eq(v any) Expr { return c.leaf(OpEq, v) }

// Ne matches records whose column differs from v.
func (c ColRef) Ne(v any) Expr { return c.leaf(OpNe, v) }

// Lt matches records whose column is less than v.
func (c ColRef) Lt(v any) Expr { return c.leaf(OpLt, v) }

// Le matches records whose column is at most v.
func (c ColRef) Le(v any) Expr { return c.leaf(OpLe, v) }

// Gt matches records whose column is greater than v.
func (c ColRef) Gt(v any) Expr { return c.leaf(OpGt, v) }

// Ge matches records whose column is at least v.
func (c ColRef) Ge(v any) Expr { return c.leaf(OpGe, v) }

// HasPrefix matches Bytes columns whose value starts with p (a string
// or []byte).
func (c ColRef) HasPrefix(p any) Expr { return c.leaf(OpPrefix, p) }

// All matches every record; it is the explicit spelling of the zero
// Expr.
func All() Expr { return Expr{kind: exprTrue} }

// And matches records that satisfy both e and f.
func (e Expr) And(f Expr) Expr { return Expr{kind: exprAnd, kids: []Expr{e, f}} }

// Or matches records that satisfy e or f.
func (e Expr) Or(f Expr) Expr { return Expr{kind: exprOr, kids: []Expr{e, f}} }

// Not matches records that do not satisfy e.
func (e Expr) Not() Expr { return Expr{kind: exprNot, kids: []Expr{e}} }

// isAll reports whether the expression matches everything trivially.
func (e Expr) isAll() bool {
	return e.kind == exprTrue || (e.kind == exprLeaf && e.col == "" && e.val == nil)
}

// RawPredicate is a compiled predicate over an encoded record buffer.
type RawPredicate = func(buf []byte) bool

// colScope is the schema a predicate compiles against plus the
// version context that classifies unknown column names: a column the
// history added after the addressed version fails with
// core.ErrColumnNotYetAdded instead of a bare ErrNoSuchColumn.
type colScope struct {
	schema *record.Schema
	hist   *record.History // nil: version-unaware compilation
	epoch  int
}

// missing builds the error for a column name absent from the scope.
func (sc colScope) missing(name string) error {
	if sc.hist != nil {
		if addedIn, droppedIn, ok := sc.hist.ColumnEpochs(name); ok {
			if addedIn > sc.epoch {
				return fmt.Errorf("%w: %q (added at schema epoch %d, queried version is at %d)",
					core.ErrColumnNotYetAdded, name, addedIn, sc.epoch)
			}
			if droppedIn != 0 && droppedIn <= sc.epoch {
				return fmt.Errorf("%w: %q (dropped at schema epoch %d)", core.ErrNoSuchColumn, name, droppedIn)
			}
		}
	}
	return fmt.Errorf("%w: %q", core.ErrNoSuchColumn, name)
}

// CompileExpr validates e against the schema and compiles it to a raw
// predicate over encoded record buffers. A trivially-true expression
// compiles to nil (scan everything). Unknown columns fail with
// core.ErrNoSuchColumn, ill-typed comparisons with
// core.ErrTypeMismatch.
func CompileExpr(e Expr, s *record.Schema) (RawPredicate, error) {
	return compileExprScope(e, colScope{schema: s})
}

// CompileExprAt is CompileExpr against the schema visible at a schema
// epoch of the table's history: references to columns a later epoch
// introduces fail with core.ErrColumnNotYetAdded.
func CompileExprAt(e Expr, hist *record.History, epoch int) (RawPredicate, error) {
	return compileExprScope(e, colScope{schema: hist.VisibleAt(epoch), hist: hist, epoch: epoch})
}

func compileExprScope(e Expr, sc colScope) (RawPredicate, error) {
	if e.isAll() {
		return nil, nil
	}
	return compileNode(e, sc)
}

func compileNode(e Expr, sc colScope) (RawPredicate, error) {
	// A trivially-true node (the zero Expr, or All()) matches every
	// record wherever it appears in the tree, not just at the root.
	if e.isAll() {
		return func([]byte) bool { return true }, nil
	}
	switch e.kind {
	case exprLeaf:
		return compileLeaf(e, sc)
	case exprAnd, exprOr:
		kids := make([]RawPredicate, len(e.kids))
		for i, k := range e.kids {
			p, err := compileNode(k, sc)
			if err != nil {
				return nil, err
			}
			kids[i] = p
		}
		if e.kind == exprAnd {
			return func(buf []byte) bool {
				for _, p := range kids {
					if !p(buf) {
						return false
					}
				}
				return true
			}, nil
		}
		return func(buf []byte) bool {
			for _, p := range kids {
				if p(buf) {
					return true
				}
			}
			return false
		}, nil
	case exprNot:
		p, err := compileNode(e.kids[0], sc)
		if err != nil {
			return nil, err
		}
		return func(buf []byte) bool { return !p(buf) }, nil
	default:
		return nil, fmt.Errorf("%w: unknown expression node", core.ErrBadQuery)
	}
}

// planeProgram splits e into the postfix steps of core's plane
// pre-filter (core.PlaneSource): each maximal subtree whose leaves all
// read one column becomes one PlaneCol step, its Match that subtree
// compiled exactly as compileNode compiles it, so a dcz page evaluates
// it once per distinct value of the column instead of once per row —
// `cat ∈ S`, eight Eq leaves, is one table. nil when e reads no column,
// or does not compile (which Compile has already ruled out).
func planeProgram(e Expr, sc colScope) []core.PlaneNode {
	if col, one := e.column(); one && col == "" {
		return nil
	}
	nodes, err := appendPlaneNodes(nil, e, sc)
	if err != nil {
		return nil
	}
	return nodes
}

func appendPlaneNodes(nodes []core.PlaneNode, e Expr, sc colScope) ([]core.PlaneNode, error) {
	switch col, one := e.column(); {
	case one && col == "":
		return append(nodes, core.PlaneNode{Op: core.PlaneTrue}), nil
	case one:
		match, err := compileNode(e, sc)
		if err != nil {
			return nil, err
		}
		i := sc.schema.ColumnIndex(col)
		return append(nodes, core.PlaneNode{Op: core.PlaneCol, Off: sc.schema.ColumnOffset(i),
			Width: sc.schema.Column(i).Width(), Match: match}), nil
	}
	for _, k := range e.kids {
		var err error
		if nodes, err = appendPlaneNodes(nodes, k, sc); err != nil {
			return nil, err
		}
	}
	switch e.kind {
	case exprAnd:
		return append(nodes, core.PlaneNode{Op: core.PlaneAnd, N: len(e.kids)}), nil
	case exprOr:
		return append(nodes, core.PlaneNode{Op: core.PlaneOr, N: len(e.kids)}), nil
	case exprNot:
		return append(nodes, core.PlaneNode{Op: core.PlaneNot}), nil
	}
	return nil, fmt.Errorf("%w: unknown expression node", core.ErrBadQuery)
}

// column returns the one column every leaf of e reads ("" when e reads
// none); one is false when its leaves read several.
func (e Expr) column() (col string, one bool) {
	if e.isAll() {
		return "", true
	}
	if e.kind == exprLeaf {
		return e.col, true
	}
	for _, k := range e.kids {
		c, ok := k.column()
		if !ok || (c != "" && col != "" && c != col) {
			return "", false
		}
		if c != "" {
			col = c
		}
	}
	return col, true
}

func compileLeaf(e Expr, sc colScope) (RawPredicate, error) {
	s := sc.schema
	i := s.ColumnIndex(e.col)
	if i < 0 {
		return nil, sc.missing(e.col)
	}
	c := s.Column(i)
	off := s.ColumnOffset(i)
	switch c.Type {
	case record.Int32, record.Int64:
		if e.op == OpPrefix {
			return nil, fmt.Errorf("%w: prefix match on %v column %q", core.ErrTypeMismatch, c.Type, e.col)
		}
		want, ok := record.AsInt64(e.val)
		if !ok {
			return nil, fmt.Errorf("%w: %v column %q compared to %T", core.ErrTypeMismatch, c.Type, e.col, e.val)
		}
		cmp := intCmp(e.op)
		if c.Type == record.Int32 {
			return func(buf []byte) bool {
				return cmp(int64(int32(binary.LittleEndian.Uint32(buf[off:]))), want)
			}, nil
		}
		return func(buf []byte) bool {
			return cmp(int64(binary.LittleEndian.Uint64(buf[off:])), want)
		}, nil

	case record.Float64:
		if e.op == OpPrefix {
			return nil, fmt.Errorf("%w: prefix match on DOUBLE column %q", core.ErrTypeMismatch, e.col)
		}
		want, ok := record.AsFloat64(e.val)
		if !ok {
			return nil, fmt.Errorf("%w: DOUBLE column %q compared to %T", core.ErrTypeMismatch, e.col, e.val)
		}
		cmp := floatCmp(e.op)
		return func(buf []byte) bool {
			return cmp(math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])), want)
		}, nil

	case record.Bytes:
		want, ok := record.AsBytes(e.val)
		if !ok {
			return nil, fmt.Errorf("%w: BYTES column %q compared to %T", core.ErrTypeMismatch, e.col, e.val)
		}
		size := c.Size
		value := func(buf []byte) []byte {
			n := int(binary.LittleEndian.Uint16(buf[off:]))
			if n > size {
				n = size
			}
			return buf[off+2 : off+2+n]
		}
		if e.op == OpPrefix {
			return func(buf []byte) bool { return bytes.HasPrefix(value(buf), want) }, nil
		}
		cmp := intCmp(e.op)
		return func(buf []byte) bool {
			return cmp(int64(bytes.Compare(value(buf), want)), 0)
		}, nil

	default:
		return nil, fmt.Errorf("%w: column %q has unsupported type", core.ErrTypeMismatch, e.col)
	}
}

func intCmp(op Op) func(a, b int64) bool {
	switch op {
	case OpEq:
		return func(a, b int64) bool { return a == b }
	case OpNe:
		return func(a, b int64) bool { return a != b }
	case OpLt:
		return func(a, b int64) bool { return a < b }
	case OpLe:
		return func(a, b int64) bool { return a <= b }
	case OpGt:
		return func(a, b int64) bool { return a > b }
	default:
		return func(a, b int64) bool { return a >= b }
	}
}

func floatCmp(op Op) func(a, b float64) bool {
	switch op {
	case OpEq:
		return func(a, b float64) bool { return a == b }
	case OpNe:
		return func(a, b float64) bool { return a != b }
	case OpLt:
		return func(a, b float64) bool { return a < b }
	case OpLe:
		return func(a, b float64) bool { return a <= b }
	case OpGt:
		return func(a, b float64) bool { return a > b }
	default:
		return func(a, b float64) bool { return a >= b }
	}
}
