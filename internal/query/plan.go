package query

// This file holds the logical query plan behind the facade's fluent
// builder (decibel.DB.Query) and its compiler/executor. A Plan is
// purely declarative — table, branches, version, predicate, projection
// — and compiling it against a Database resolves every name through
// the catalog and version graph, compiles the typed predicate to its
// raw form, and packages both into the core.ScanSpec that core's scan
// driver evaluates on every record the engine's scan units walk.

import (
	"context"
	"fmt"
	"sync/atomic"

	"decibel/internal/core"
	"decibel/internal/record"
	"decibel/internal/vgraph"
)

// Plan is a logical versioned query: one of the paper's Table 1 shapes
// over named branches of a named table, with an optional typed
// predicate and column projection.
type Plan struct {
	Table    string   // relation name
	Branches []string // scanned branches: 1 = single-version, n = multi (or, with Diff, the diff's two sides)
	AllHeads bool     // multi-branch scan over every branch head (Query 4)

	// Diff makes the plan the positive diff of Query 2: the records live
	// at Branches[0]'s head but not at Branches[1]'s. Only the diff
	// terminals (SymDiff, EmitDiffRows) run a Diff plan, and they
	// run nothing else. (Declared beside AllHeads, whose padding it
	// takes: a Compiled, which embeds the plan, stays in its size class.)
	Diff bool

	AtSeq int // >= 0: the AtSeq'th commit made on Branches[0] (historical read); -1 = head

	// AtCommit pins the read to an explicit commit ID (vgraph.None =
	// unset). Unlike AtSeq it addresses any commit reachable from the
	// graph — including a fresh branch's head, which still belongs to
	// the parent branch's commit sequence — so snapshot readers (the
	// server) pin the head they resolved rather than a per-branch
	// coordinate.
	AtCommit vgraph.CommitID
	Where    Expr     // typed predicate; zero value matches all
	Cols     []string // projected columns; nil = all (the pk is always kept)

	// OrderCol orders emitted rows by the named column ("" = storage
	// order); OrderDesc flips the direction. Limit caps the number of
	// emitted rows (0 = unlimited). With both set the executor takes the
	// ordered unit visit and its top-k heap instead of gathering the
	// full result (ordered.go).
	OrderCol  string
	OrderDesc bool
	Limit     int

	// NoPrune disables every zone-map skip for this plan — segment
	// pruning, the point lookup and the ordered visit's unit skips: the
	// reference the pruning property tests hold the pruned paths to.
	NoPrune bool

	// Joins composes N-way equi-joins: each leg is a single-table
	// sub-plan joined to the relations declared before it (the root
	// plan is relation 0). The executor reorders the relations greedily
	// by zone-map row estimate unless NoReorder is set; the result is
	// identical either way (see join.go).
	Joins []JoinLeg

	// NoReorder pins the join execution to the declared relation order,
	// bypassing the greedy zone-map ordering: the reference the join
	// equivalence tests hold the greedy order to.
	NoReorder bool

	// GroupCols makes the plan a grouped aggregation: rows bucket by
	// the named columns and the Groups terminal folds per-group
	// aggregates (see group.go). Mutually exclusive with OrderBy/Limit.
	GroupCols []string
}

// Compiled is a plan resolved against one database: names bound, the
// schema resolved as of the addressed version, predicate compiled,
// pushdown spec built. A Compiled is reusable across executions — each
// run clones the spec's projection scratch (the only stateful piece),
// so callers can compile once and execute many times instead of
// re-planning per call. It binds the catalog and version graph as of
// compile time: after a schema change or new commits moved the
// addressed heads, compile again.
type Compiled struct {
	db       *core.Database
	table    *core.Table
	plan     Plan
	branches []*vgraph.Branch
	commit   *vgraph.Commit // non-nil when AtSeq >= 0
	epoch    int            // schema epoch the query addresses
	schema   *record.Schema // schema visible at epoch
	pred     RawPredicate
	bounds   []core.Bound   // zone-map pruning bounds (nil with NoPrune)
	cols     []int          // resolved projection (nil = all)
	proto    *core.ScanSpec // pred + projection + bounds; cloned per execution
	orderIdx int            // OrderCol's index in the output schema; -1 = unordered
	join     *joinPlan      // non-nil when the plan composes joins

	// groupKeys is GroupCols resolved: handles into the table schema
	// for a single-table plan, into the relations' output schemas for a
	// join-composed one.
	groupKeys []colHandle

	// planes is the predicate's plane program (PlaneNodes): built when
	// the first scan meets a dcz page, then shared by every later scan,
	// row walk or fold, of this Compiled. Building it at Compile would
	// cost a read that never meets a dcz page, a point lookup say, an
	// allocation.
	planes atomic.Value // []core.PlaneNode
}

// Compile resolves and validates the plan against db. All validation
// failures wrap sentinel errors: core.ErrNoSuchTable,
// core.ErrNoSuchBranch, core.ErrNoSuchCommit, core.ErrNoSuchColumn,
// core.ErrTypeMismatch and core.ErrBadQuery.
//
// Compile and the Compiled terminals are the one place a query shape
// is accepted or rejected: the facade's builder, the server and the CLI
// translate their input into a Plan and call the terminal their caller
// names, and an illegal combination fails here — or in a terminal that
// does not run the plan's shape — with ErrBadQuery.
func (p Plan) Compile(db *core.Database) (*Compiled, error) {
	t, err := db.TableByName(p.Table)
	if err != nil {
		return nil, err
	}
	c := &Compiled{db: db, table: t, plan: p}

	if p.Diff {
		switch {
		case p.AllHeads || len(p.Branches) != 2:
			return nil, fmt.Errorf("%w: a diff reads exactly two branch heads, not Heads or more branches", core.ErrBadQuery)
		case p.AtSeq >= 0 || p.AtCommit != vgraph.None:
			return nil, fmt.Errorf("%w: a diff reads branch heads; At/AtCommit do not apply", core.ErrBadQuery)
		case len(p.Joins) > 0 || len(p.GroupCols) > 0:
			return nil, fmt.Errorf("%w: joins and GroupBy do not apply to a diff", core.ErrBadQuery)
		}
	}

	if p.AllHeads {
		if len(p.Branches) > 0 {
			return nil, fmt.Errorf("%w: Heads() combined with explicit branches", core.ErrBadQuery)
		}
		c.branches = db.Branches()
	} else {
		if len(p.Branches) == 0 {
			return nil, fmt.Errorf("%w: no branch given; use On or Heads", core.ErrBadQuery)
		}
		c.branches = make([]*vgraph.Branch, len(p.Branches))
		for i, name := range p.Branches {
			b, err := db.BranchNamed(name)
			if err != nil {
				return nil, err
			}
			c.branches[i] = b
		}
	}

	if p.AtSeq >= 0 {
		if p.AllHeads || len(c.branches) != 1 {
			return nil, fmt.Errorf("%w: At() requires exactly one branch", core.ErrBadQuery)
		}
		var ok bool
		if c.commit, ok = db.Graph().CommitAt(c.branches[0].ID, p.AtSeq); !ok {
			return nil, fmt.Errorf("%w: %s@%d", core.ErrNoSuchCommit, c.branches[0].Name, p.AtSeq)
		}
	}

	if p.AtCommit != vgraph.None {
		if p.AtSeq >= 0 {
			return nil, fmt.Errorf("%w: At() combined with AtCommit()", core.ErrBadQuery)
		}
		if p.AllHeads || len(c.branches) != 1 {
			return nil, fmt.Errorf("%w: AtCommit() requires exactly one branch", core.ErrBadQuery)
		}
		cm, ok := db.Graph().Commit(p.AtCommit)
		if !ok {
			return nil, fmt.Errorf("%w: id %d", core.ErrNoSuchCommit, p.AtCommit)
		}
		c.commit = cm
	}

	// Resolve the schema as of the addressed version: the commit's
	// stamped epoch for At(), otherwise the newest head epoch among the
	// scanned branches (rows from older branches or segments widen with
	// defaults at scan time). Columns a later epoch introduces fail
	// with ErrColumnNotYetAdded.
	if c.commit != nil {
		c.epoch = c.commit.SchemaVer
	} else {
		ids := make([]vgraph.BranchID, len(c.branches))
		for i, b := range c.branches {
			ids[i] = b.ID
		}
		c.epoch = t.MaxBranchEpoch(ids)
	}
	c.schema = t.SchemaAt(c.epoch)
	scope := colScope{schema: c.schema, hist: t.History(), epoch: c.epoch}
	c.pred, err = compileExprScope(p.Where, scope)
	if err != nil {
		return nil, err
	}
	if p.Cols != nil {
		c.cols = make([]int, len(p.Cols))
		for i, name := range p.Cols {
			ci := c.schema.ColumnIndex(name)
			if ci < 0 {
				return nil, scope.missing(name)
			}
			c.cols[i] = ci
		}
	}
	c.proto, err = core.NewScanSpecAt(t.History(), c.epoch, c.pred, c.cols)
	if err != nil {
		return nil, err
	}
	if !p.NoPrune {
		c.bounds = extractBounds(p.Where, scope)
		c.proto.SetBounds(c.bounds)
	}

	c.orderIdx = -1
	if p.OrderCol != "" {
		if c.schema.ColumnIndex(p.OrderCol) < 0 {
			return nil, scope.missing(p.OrderCol)
		}
		c.orderIdx = c.proto.Out().ColumnIndex(p.OrderCol)
		if c.orderIdx < 0 {
			return nil, fmt.Errorf("%w: OrderBy column %q is not part of the Select projection", core.ErrBadQuery, p.OrderCol)
		}
	}
	if p.Limit < 0 {
		return nil, fmt.Errorf("%w: negative Limit %d", core.ErrBadQuery, p.Limit)
	}
	if len(p.Joins) > 0 {
		if err := c.compileJoins(db); err != nil {
			return nil, err
		}
	}
	if len(p.GroupCols) > 0 {
		if err := c.compileGroupBy(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Branches returns the resolved branches in scan order; for a
// multi-branch scan, membership bitmap bit i corresponds to the i-th
// entry.
func (c *Compiled) Branches() []*vgraph.Branch { return c.branches }

// OutSchema returns the schema of the records the query emits (the
// projected schema when Select was used).
func (c *Compiled) OutSchema() *record.Schema { return c.proto.Out() }

// Epoch returns the schema epoch the query addresses.
func (c *Compiled) Epoch() int { return c.epoch }

// execSpec returns the scan spec for one execution: the compiled
// prototype, cloned so each run owns its scratch or view record.
func (c *Compiled) execSpec() *core.ScanSpec { return c.proto.Clone() }

// PlaneNodes implements core.PlaneSource for the plan's predicate
// (planeProgram), building it on the first call. A scan asks for it
// when it first meets a dcz page, so the reads that never do compile
// nothing more than the plan.
func (c *Compiled) PlaneNodes() []core.PlaneNode {
	if p := c.planes.Load(); p != nil {
		return p.([]core.PlaneNode)
	}
	nodes := planeProgram(c.plan.Where, colScope{schema: c.schema}, c.pred)
	c.planes.Store(nodes) // a concurrent first call builds an equal program
	return nodes
}

// single checks the plan addresses exactly one version.
func (c *Compiled) single() error {
	if c.plan.AllHeads || len(c.branches) != 1 {
		return fmt.Errorf("%w: this terminal needs exactly one branch", core.ErrBadQuery)
	}
	return nil
}

// rowShape rejects row terminals on plans composed with joins or
// GroupBy — those run through the Tuples and Groups terminals — and
// checks the plan is a Diff exactly when the terminal is a diff one.
func (c *Compiled) rowShape(terminal string, diff bool) error {
	switch {
	case c.join != nil:
		return fmt.Errorf("%w: %s does not apply to a join-composed query; use Tuples or Groups", core.ErrBadQuery, terminal)
	case len(c.plan.GroupCols) > 0:
		return fmt.Errorf("%w: %s does not apply to a grouped query; use Groups", core.ErrBadQuery, terminal)
	case c.plan.Diff && !diff:
		return fmt.Errorf("%w: %s does not apply to a diff; use Diff", core.ErrBadQuery, terminal)
	case diff && !c.plan.Diff:
		return fmt.Errorf("%w: %s needs a diff plan of two branch heads", core.ErrBadQuery, terminal)
	}
	return nil
}

// shape returns the scan kind the plan's addressing implies: several
// branches (or Heads) read as one multi-branch scan, a pinned commit as
// a historical scan, otherwise the branch head.
func (c *Compiled) shape() core.ScanKind {
	switch {
	case c.plan.AllHeads || len(c.branches) > 1:
		return core.ScanKindMulti
	case c.commit != nil:
		return core.ScanKindCommit
	}
	return core.ScanKindBranch
}

// request builds the engine partition request of the given kind from
// the plan's resolved addressing — the one place a plan becomes a
// core.ScanRequest.
func (c *Compiled) request(kind core.ScanKind) core.ScanRequest {
	req := core.ScanRequest{Kind: kind}
	switch kind {
	case core.ScanKindBranch:
		req.Branch = c.branches[0].ID
	case core.ScanKindCommit:
		req.Commit = c.commit
	case core.ScanKindMulti:
		req.Branches = make([]vgraph.BranchID, len(c.branches))
		for i, b := range c.branches {
			req.Branches[i] = b.ID
		}
	case core.ScanKindDiff, core.ScanKindPositiveDiff:
		req.A, req.B = c.branches[0].ID, c.branches[1].ID
	}
	return req
}

// runRows runs a row-emitting shape (branch, commit, multi or either
// diff) through core's driver, under one execution's walk spec and the
// plan's plane pre-filter.
func (c *Compiled) runRows(ctx context.Context, req core.ScanRequest, emit core.UnitFunc) error {
	return c.table.ScanUnitsContext(ctx, req, c.execSpec(), c, nil, emit)
}

// Scan executes a single-version scan (Query 1): the branch head, or
// the checked-out commit when the plan has AtSeq/AtCommit. A scan whose
// predicate pins the primary key to one value is served by the
// engine's LookupPK (a point lookup) of that version instead of a
// segment scan; the full predicate and projection still run on the
// looked-up record, so the result is identical.
func (c *Compiled) Scan(ctx context.Context, fn core.ScanFunc) error {
	if err := c.rowShape("Rows", false); err != nil {
		return err
	}
	if err := c.single(); err != nil {
		return err
	}
	if pk, ok := c.pointPK(); ok {
		return c.table.LookupPKContext(ctx, c.version(), pk, c.execSpec(), fn)
	}
	return c.runRows(ctx, c.request(c.shape()), func(rec *record.Record, _ core.UnitAux) bool { return fn(rec) })
}

// version is the one version a single-version plan reads: its pinned
// commit, or its branch's head.
func (c *Compiled) version() core.Version {
	return core.Version{Branch: c.branches[0].ID, Commit: c.commit}
}

// pointPK reports whether the extracted bounds pin the primary key
// (column 0, always Int64) to exactly one value — the planner's signal
// that the scan is a point lookup. Bounds are conservative, so a point
// bound never excludes a matching record; the full predicate re-runs on
// the record the index yields. NoPrune plans extract no bounds and keep
// the scan path (the reference the pruning tests compare against).
func (c *Compiled) pointPK() (int64, bool) {
	for i := range c.bounds {
		b := &c.bounds[i]
		if b.Col == 0 && b.HasMin && b.HasMax && b.MinI == b.MaxI {
			return b.MinI, true
		}
	}
	return 0, false
}

// Annotated executes a multi-branch scan (Query 4) over the plan's
// branches (or every head with Heads) as one engine pass, and passes
// each record with the names of the scanned branches whose heads hold
// it — the output shape of the paper's HEAD() query, "a list of records
// annotated with their active branches". The name slice is reused
// across calls; copy it to retain it. The scan emits in storage order,
// so OrderBy/Limit do not apply.
func (c *Compiled) Annotated(ctx context.Context, fn func(rec *record.Record, branches []string) bool) error {
	if err := c.noOrdering("Annotated"); err != nil {
		return err
	}
	if err := c.rowShape("Annotated", false); err != nil {
		return err
	}
	if c.commit != nil {
		return fmt.Errorf("%w: At() cannot combine with a multi-branch scan", core.ErrBadQuery)
	}
	branches := c.branches // not c.branches in the closure: it runs once per head a record is live in
	names := make([]string, 0, len(branches))
	return c.runRows(ctx, c.request(core.ScanKindMulti), func(rec *record.Record, aux core.UnitAux) bool {
		names = names[:0]
		aux.Member.ForEach(func(i int) bool {
			names = append(names, branches[i].Name)
			return true
		})
		return fn(rec, names)
	})
}

// SymDiff executes the symmetric diff of a Diff plan's Branches()[0]
// and Branches()[1] in one pass: inA is true for records live in the
// first but not the second, false for the reverse. Predicate and
// projection apply to both sides.
func (c *Compiled) SymDiff(ctx context.Context, fn func(rec *record.Record, inA bool) bool) error {
	if err := c.rowShape("Diff", true); err != nil {
		return err
	}
	return c.runRows(ctx, c.request(core.ScanKindDiff),
		func(rec *record.Record, aux core.UnitAux) bool { return fn(rec, aux.InA) })
}
