package decibel

import (
	"context"
	"fmt"
	"iter"

	iquery "decibel/internal/query"
	"decibel/internal/record"
)

// Expr is a typed predicate over named columns, built with Col and
// combined with its And/Or/Not methods. The zero value matches every
// record. Expressions are validated against the table's catalog when
// the query runs — unknown columns fail with ErrNoSuchColumn,
// ill-typed comparisons with ErrTypeMismatch.
type Expr = iquery.Expr

// ColRef references a named column inside a predicate; its comparison
// methods (Eq, Ne, Lt, Le, Gt, Ge, HasPrefix) produce Exprs.
type ColRef = iquery.ColRef

// Col starts a typed predicate on the named column:
//
//	decibel.Col("price").Lt(9.5)
//	decibel.Col("sku").HasPrefix("widget-").And(decibel.Col("qty").Ge(3))
//
// Integer values fit Int32/Int64 columns, floats (or integers) fit
// Float64 columns, strings and []byte fit Bytes columns.
func Col(name string) ColRef { return iquery.Col(name) }

// MatchAll is the explicit always-true predicate (the zero Expr
// behaves the same).
func MatchAll() Expr { return iquery.All() }

// JoinKey is the equi-join condition JoinOn composes on, built with On:
// Left names a column of the relations already in the query (the root
// table or an earlier JoinOn leg), Right a column of the newly joined
// query's table.
type JoinKey struct{ Left, Right string }

// On builds the equi-join key for JoinOn:
//
//	db.Query("orders").On("master").
//		JoinOn(db.Query("users"), decibel.On("user_id", "id")).
//		Tuples()
//
// joins each order to the user whose id equals the order's user_id.
// Keys must be integer or byte-string columns — Float64 keys fail at
// plan time with ErrBadQuery (float equality is ill-defined), and
// mixing the two families fails with ErrTypeMismatch.
func On(left, right string) JoinKey { return JoinKey{Left: left, Right: right} }

// JoinTuple is one joined output row: one record per relation in the
// order the query composed them (index 0 is the root table).
type JoinTuple = iquery.JoinTuple

// GroupRow is one group of a grouped aggregation: the GroupBy column
// values (int64, float64 or []byte, in GroupBy order) and one float64
// result per aggregate passed to Groups, in argument order.
type GroupRow = iquery.GroupRow

// Agg names one per-group aggregate for the Groups terminal, built
// with the Count, Sum, Min, Max and Avg constructors.
type Agg = iquery.AggSpec

// Count is the per-group row count for Groups.
func Count() Agg { return Agg{Kind: iquery.AggCount} }

// Sum folds the named numeric column per group.
func Sum(col string) Agg { return Agg{Kind: iquery.AggSum, Col: col} }

// Min keeps the named numeric column's smallest value per group.
func Min(col string) Agg { return Agg{Kind: iquery.AggMin, Col: col} }

// Max keeps the named numeric column's largest value per group.
func Max(col string) Agg { return Agg{Kind: iquery.AggMax, Col: col} }

// Avg folds the named numeric column's mean per group.
func Avg(col string) Agg { return Agg{Kind: iquery.AggAvg, Col: col} }

// AggNamed returns the aggregate a name spells — count, sum, min, max
// or avg, as the server's wire protocol names them — over col (ignored
// by count); ok is false for any other name.
func AggNamed(name, col string) (agg Agg, ok bool) {
	kind, ok := iquery.AggKindNamed(name)
	return Agg{Kind: kind, Col: col}, ok
}

// Query is a fluent, name-based versioned query over one table,
// started with DB.Query. Configure it with On/At/Heads/Where/Select —
// and compose relations with JoinOn and GroupBy — then run one
// terminal: Rows, Annotated, Diff, Tuples, Groups, Count, Sum, Min,
// Max or Avg (each with a Context variant). A Query is cheap to build and
// reusable — every terminal compiles the logical plan afresh against
// the catalog and version graph, so plan-time validation errors
// (ErrNoSuchBranch, ErrNoSuchColumn, ErrTypeMismatch, ErrBadQuery, ...)
// surface from the terminal, wrapped for errors.Is.
//
// Under the hood the plan is pushed into the storage engine where
// possible: predicates are compiled to raw buffer comparisons the
// engines evaluate before materializing records, and multi-branch
// scans (On with several branches, or Heads) run as a single pass
// driven by the union of the branches' liveness bitmaps instead of one
// rescan per branch.
type Query struct {
	db       *DB
	plan     iquery.Plan
	hasWhere bool
	err      error // sticky builder error, surfaced by the terminals
}

// Query starts a query over the named table:
//
//	rows, qErr := db.Query("products").
//		On("master").
//		Where(decibel.Col("price").Lt(9.5)).
//		Select("sku", "price").
//		Rows()
func (db *DB) Query(table string) *Query {
	return &Query{db: db, plan: iquery.Plan{Table: table, AtSeq: -1}}
}

// On adds the named branches to the scan set. One branch is the
// single-version scan of Query 1; several make the query a
// multi-branch scan executed in one engine pass (see Annotated).
func (q *Query) On(branches ...string) *Query {
	q.plan.Branches = append(q.plan.Branches, branches...)
	return q
}

// Heads makes the query scan every branch head (the paper's HEAD()
// scan, Query 4). It cannot be combined with On.
func (q *Query) Heads() *Query {
	q.plan.AllHeads = true
	return q
}

// At addresses a historical version: the seq'th commit made on the
// query's single branch, zero-based (the CLI's "branch@seq"
// time-travel). Requires exactly one On branch. A negative seq names no
// commit: the terminals fail with ErrNoSuchCommit, as for a seq past
// the branch's last commit.
func (q *Query) At(seq int) *Query {
	if seq < 0 {
		q.fail(fmt.Errorf("%w: commit number %d", ErrNoSuchCommit, seq))
		return q
	}
	q.plan.AtSeq = seq
	return q
}

// AtCommit pins the read to an explicit commit ID — any commit in the
// graph, including a branch head captured before later commits moved
// it. Reading a pinned commit takes no branch locks (history is
// immutable), which is how the server serves snapshot-isolated reads.
// Requires exactly one On branch; cannot combine with At.
func (q *Query) AtCommit(id CommitID) *Query {
	q.plan.AtCommit = id
	return q
}

// Where filters the scanned records with a typed predicate. Calling
// Where repeatedly ANDs the predicates together.
func (q *Query) Where(e Expr) *Query {
	if q.hasWhere {
		q.plan.Where = q.plan.Where.And(e)
	} else {
		q.plan.Where = e
		q.hasWhere = true
	}
	return q
}

// Select projects the output to the named columns. The primary key
// column is always retained, and always first (prepended when not
// listed, moved to the front when listed later), because Decibel
// addresses records by key across versions.
func (q *Query) Select(cols ...string) *Query {
	q.plan.Cols = append(q.plan.Cols, cols...)
	return q
}

// OrderBy sorts the rows Rows/Diff emit by the named column,
// ascending (desc flips the direction; NaN orders below every number).
// The column must exist at the addressed version — unknown names fail
// at plan time with ErrNoSuchColumn — and must survive Select. OrderBy
// alone gathers and sorts the whole result, so combine it with Limit
// where possible: together they visit the segments most likely to rank
// first, keep a bounded top-k heap, and skip segments whose zone maps
// prove they cannot reach it.
func (q *Query) OrderBy(col string, desc bool) *Query {
	q.plan.OrderCol = col
	q.plan.OrderDesc = desc
	return q
}

// Limit caps the number of rows Rows/Diff emit. Without OrderBy the
// scan simply stops early; with it, the query keeps the first n rows
// of the ordered output (see OrderBy).
func (q *Query) Limit(n int) *Query {
	q.plan.Limit = n
	return q
}

// Sequential returns q unchanged: every scan runs on the calling
// goroutine.
//
// Deprecated: kept only until benchmark/ladder.go stops calling it.
func (q *Query) Sequential() *Query { return q }

// JoinOn composes an N-way equi-join: the rows of other's table whose
// key.Right column equals the key.Left column of the relations already
// in the query. Each JoinOn adds one relation; other carries its own
// branch, Where and Select (a leg without On inherits this query's
// branch), and its predicate/projection push into its own scan. A
// primary-key join of two versions of one table (the paper's Query 3)
// reads both from one snapshot and each record they share once.
// Otherwise the planner orders the relations greedily by zone-map row
// estimate — smallest first, hash-build on the accumulated side,
// streaming-probe the larger. The joined tuples do not depend on the
// path or the order: they emit in ascending composite primary-key
// order through Tuples (or grouped through GroupBy and Groups). other's
// configuration is captured at the JoinOn call.
func (q *Query) JoinOn(other *Query, key JoinKey) *Query {
	if other == nil {
		q.fail(fmt.Errorf("%w: JoinOn with a nil query", ErrBadQuery))
		return q
	}
	if other.db != q.db {
		q.fail(fmt.Errorf("%w: JoinOn composes queries of the same DB", ErrBadQuery))
		return q
	}
	if other.err != nil {
		q.fail(other.err)
		return q
	}
	q.plan.Joins = append(q.plan.Joins, iquery.JoinLeg{Plan: other.plan, LeftCol: key.Left, RightCol: key.Right})
	return q
}

// GroupBy makes the query a grouped aggregation: rows (or joined
// tuples) bucket by the named columns and the Groups terminal streams
// one row per distinct key with the requested aggregates, in
// first-arrival order. Grouping is bounded hash aggregation — state
// per distinct group, not per row — folded as the scan delivers rows,
// like the scalar aggregates. GroupBy cannot combine with OrderBy or
// Limit.
func (q *Query) GroupBy(cols ...string) *Query {
	q.plan.GroupCols = append(q.plan.GroupCols, cols...)
	return q
}

// fail records the first builder error; terminals surface it.
func (q *Query) fail(err error) {
	if q.err == nil {
		q.err = err
	}
}

// compile resolves the plan against the database. The diff terminals
// pass their two branches, which join the scan set and make the plan a
// Diff.
func (q *Query) compile(diff ...string) (*iquery.Compiled, error) {
	if q.err != nil {
		return nil, q.err
	}
	p := q.plan
	if diff != nil {
		p.Branches = append(p.Branches[:len(p.Branches):len(p.Branches)], diff...)
		p.Diff = true
	}
	return p.Compile(q.db.Database)
}

// errSeq returns an empty sequence carrying err.
func errSeq(err error) (iter.Seq[*Record], func() error) {
	return func(func(*Record) bool) {}, func() error { return err }
}

func errSeq2[A, B any](err error) (iter.Seq2[A, B], func() error) {
	return func(func(A, B) bool) {}, func() error { return err }
}

func errSeq1[T any](err error) (iter.Seq[T], func() error) {
	return func(func(T) bool) {}, func() error { return err }
}

// Rows runs the query and iterates its records: the single-version
// scan of Query 1 (On one branch, optionally At a historical commit),
// or — with several branches or Heads — each record live in any
// scanned head exactly once. A yielded record may alias a buffer-pool
// frame: its bytes may be overwritten once the iteration step returns
// (the pool reuses an evicted page's frame), so Clone a record to keep
// it. The trailing error accessor is valid once iteration finishes.
func (q *Query) Rows() (iter.Seq[*Record], func() error) {
	return q.RowsContext(context.Background())
}

// RowsContext is Rows bounded by a context: the sequence stops within
// one record of ctx being canceled and the error accessor reports
// ctx.Err().
func (q *Query) RowsContext(ctx context.Context) (iter.Seq[*Record], func() error) {
	c, err := q.compile()
	if err != nil {
		return errSeq(err)
	}
	var scanErr error
	seq := func(yield func(*Record) bool) {
		scanErr = c.EmitRows(ctx, func(rec *record.Record) bool { return yield(rec) })
	}
	return seq, func() error { return scanErr }
}

// Annotated runs a multi-branch scan (On with several branches, or
// Heads) and iterates each live record together with the names of the
// branches whose heads contain it — the output shape of the paper's
// HEAD() query. The scan is one engine pass over the union of the
// branches' bitmaps. As with Rows, a yielded record's bytes may be
// overwritten once the iteration step returns; Clone it to keep it. The
// yielded name slice is reused across iterations; copy it to retain it.
func (q *Query) Annotated() (iter.Seq2[*Record, []string], func() error) {
	return q.AnnotatedContext(context.Background())
}

// AnnotatedContext is Annotated bounded by a context.
func (q *Query) AnnotatedContext(ctx context.Context) (iter.Seq2[*Record, []string], func() error) {
	c, err := q.compile()
	if err != nil {
		return errSeq2[*Record, []string](err)
	}
	var scanErr error
	seq := func(yield func(*Record, []string) bool) {
		scanErr = c.Annotated(ctx, yield)
	}
	return seq, func() error { return scanErr }
}

// Diff runs the positive diff of Query 2: the records live at branch
// a's head but not at branch b's, with Where and Select applied to the
// emitted records. Diff provides the two versions itself; combining it
// with On or Heads is an error. As with Rows, a yielded record's bytes
// may be overwritten once the iteration step returns; Clone it to keep
// it.
func (q *Query) Diff(a, b string) (iter.Seq[*Record], func() error) {
	return q.DiffContext(context.Background(), a, b)
}

// DiffContext is Diff bounded by a context.
func (q *Query) DiffContext(ctx context.Context, a, b string) (iter.Seq[*Record], func() error) {
	c, err := q.compile(a, b)
	if err != nil {
		return errSeq(err)
	}
	var scanErr error
	seq := func(yield func(*Record) bool) {
		scanErr = c.EmitDiffRows(ctx, func(rec *record.Record) bool { return yield(rec) })
	}
	return seq, func() error { return scanErr }
}

// Rows iterates the records live at the named branch's head of the
// named table: db.Query(table).On(branch).Rows(). Name-resolution
// failures surface through the trailing error accessor, like scan
// errors. A yielded record's bytes may be overwritten once the
// iteration step returns; Clone it to keep it.
func (db *DB) Rows(table, branch string) (iter.Seq[*Record], func() error) {
	return db.Query(table).On(branch).Rows()
}

// RowsContext is Rows bounded by a context: the sequence stops within
// one record of ctx being canceled and the error accessor reports
// ctx.Err().
func (db *DB) RowsContext(ctx context.Context, table, branch string) (iter.Seq[*Record], func() error) {
	return db.Query(table).On(branch).RowsContext(ctx)
}

// Diff iterates the symmetric difference between the heads of two
// named branches of the named table, both sides in one pass: the bool
// is true for records live in a but not b, false for the reverse.
// Query(table).Diff(a, b) is the filtered, ordered positive side. A
// yielded record's bytes may be overwritten once the iteration step
// returns; Clone it to keep it.
func (db *DB) Diff(table, a, b string) (iter.Seq2[*Record, bool], func() error) {
	return db.DiffContext(context.Background(), table, a, b)
}

// DiffContext is Diff bounded by a context.
func (db *DB) DiffContext(ctx context.Context, table, a, b string) (iter.Seq2[*Record, bool], func() error) {
	c, err := db.Query(table).compile(a, b)
	if err != nil {
		return errSeq2[*Record, bool](err)
	}
	var scanErr error
	seq := func(yield func(*Record, bool) bool) {
		scanErr = c.SymDiff(ctx, yield)
	}
	return seq, func() error { return scanErr }
}

// Count runs the query and returns the number of matching records (a
// multi-branch count counts each record live in any scanned head
// once).
func (q *Query) Count() (int, error) { return q.CountContext(context.Background()) }

// CountContext is Count bounded by a context.
func (q *Query) CountContext(ctx context.Context) (int, error) {
	c, err := q.compile()
	if err != nil {
		return 0, err
	}
	n, err := c.Aggregate(ctx, iquery.AggCount, "")
	return int(n), err
}

// Sum folds the named numeric column over the matching records.
// Integer columns are accumulated exactly as int64 and converted to
// float64 on return.
func (q *Query) Sum(col string) (float64, error) { return q.SumContext(context.Background(), col) }

// SumContext is Sum bounded by a context.
func (q *Query) SumContext(ctx context.Context, col string) (float64, error) {
	return q.agg(ctx, iquery.AggSum, col)
}

// Min returns the smallest value of the named numeric column among the
// matching records; an empty scan fails with ErrNoRows.
func (q *Query) Min(col string) (float64, error) { return q.MinContext(context.Background(), col) }

// MinContext is Min bounded by a context.
func (q *Query) MinContext(ctx context.Context, col string) (float64, error) {
	return q.agg(ctx, iquery.AggMin, col)
}

// Max returns the largest value of the named numeric column among the
// matching records; an empty scan fails with ErrNoRows.
func (q *Query) Max(col string) (float64, error) { return q.MaxContext(context.Background(), col) }

// MaxContext is Max bounded by a context.
func (q *Query) MaxContext(ctx context.Context, col string) (float64, error) {
	return q.agg(ctx, iquery.AggMax, col)
}

// Avg returns the mean of the named numeric column over the matching
// records; an empty scan fails with ErrNoRows.
func (q *Query) Avg(col string) (float64, error) { return q.AvgContext(context.Background(), col) }

// AvgContext is Avg bounded by a context.
func (q *Query) AvgContext(ctx context.Context, col string) (float64, error) {
	return q.agg(ctx, iquery.AggAvg, col)
}

func (q *Query) agg(ctx context.Context, kind iquery.AggKind, col string) (float64, error) {
	c, err := q.compile()
	if err != nil {
		return 0, err
	}
	return c.Aggregate(ctx, kind, col)
}

// Tuples runs the composed join (JoinOn) and iterates its joined
// tuples — one record per relation, in composition order, emitted in
// ascending composite primary-key order. Tuple records are copies the
// join owns: safe to retain across iterations. The trailing error
// accessor is valid once iteration finishes.
func (q *Query) Tuples() (iter.Seq[JoinTuple], func() error) {
	return q.TuplesContext(context.Background())
}

// TuplesContext is Tuples bounded by a context.
func (q *Query) TuplesContext(ctx context.Context) (iter.Seq[JoinTuple], func() error) {
	c, err := q.compile()
	if err != nil {
		return errSeq1[JoinTuple](err)
	}
	var scanErr error
	seq := func(yield func(JoinTuple) bool) {
		scanErr = c.JoinTuples(ctx, func(t iquery.JoinTuple) bool { return yield(t) })
	}
	return seq, func() error { return scanErr }
}

// Groups runs the grouped aggregation (GroupBy) and iterates one
// GroupRow per distinct key in first-arrival order, folding the given
// aggregates per group:
//
//	groups, gErr := db.Query("orders").On("master").
//		GroupBy("sku").
//		Groups(decibel.Count(), decibel.Avg("price"))
//
// With no aggregates Groups degenerates to DISTINCT over the GroupBy
// columns. The trailing error accessor is valid once iteration
// finishes.
func (q *Query) Groups(aggs ...Agg) (iter.Seq[*GroupRow], func() error) {
	return q.GroupsContext(context.Background(), aggs...)
}

// GroupsContext is Groups bounded by a context.
func (q *Query) GroupsContext(ctx context.Context, aggs ...Agg) (iter.Seq[*GroupRow], func() error) {
	c, err := q.compile()
	if err != nil {
		return errSeq1[*GroupRow](err)
	}
	var scanErr error
	seq := func(yield func(*GroupRow) bool) {
		scanErr = c.GroupScan(ctx, aggs, func(g *iquery.GroupRow) bool { return yield(g) })
	}
	return seq, func() error { return scanErr }
}
