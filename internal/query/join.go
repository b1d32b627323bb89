package query

// N-way equi-join execution. A Plan composes joins as a list of legs —
// each a single-table sub-plan plus the key columns tying it to the
// relations declared before it — and compiling the plan turns the legs
// into a joinPlan: one Compiled per relation (predicate, projection and
// zone-map bounds pushed into each relation's own ScanSpec path) plus
// the equi-join edges between them.
//
// Execution is a left-deep hash-join pipeline over a greedy relation
// order (janus-datalog's "greedy beats optimal" result, seeded by the
// zone maps instead of a cost model): start at the relation with the
// smallest zone-map row estimate, then repeatedly take the cheapest
// relation connected to the joined set. The accumulated intermediate —
// grown from the smallest relations — is the hash-build side at every
// step, and each newly added relation streams through its ordinary scan
// path as the probe side, so the largest relations are never
// materialized beyond their matching rows.
//
// Tuples emit in ascending composite primary-key order (relation
// declaration order), a total order over the output that does not
// depend on the execution order — greedy and declared-order runs emit
// byte-identical streams, which is what the ordering benchmarks and
// the equivalence harness assert.

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"decibel/internal/core"
	"decibel/internal/record"
)

// JoinLeg is one joined relation in a Plan: a single-table sub-plan
// (its own branch, predicate and projection) plus the equi-join key —
// LeftCol names a column of the relations declared before this leg,
// RightCol a column of this leg's table. A leg naming no branch
// inherits the root plan's branch.
type JoinLeg struct {
	Plan     Plan
	LeftCol  string
	RightCol string
}

// JoinTuple is one joined output row: one record per relation, in
// declaration order (index 0 is the root table). Records are cloned —
// safe to retain.
type JoinTuple []*record.Record

// joinEdge is one compiled equi-join condition between two relations,
// keyed by each side's column index in that relation's output schema.
type joinEdge struct {
	left, right       int // relation indices, right declared later
	leftCol, rightCol int
	bytesKey          bool
}

// joinPlan is the compiled join: the relations in declaration order,
// the edges between them, and the zone-map row estimate per relation.
type joinPlan struct {
	rels  []*Compiled
	edges []joinEdge
	ests  []int64
}

// compileJoins resolves the plan's join legs: each leg compiles as its
// own single-table plan (predicate/projection/bounds pushdown falls
// out of the leg's ScanSpec), the join keys resolve against the
// relations' output schemas, and the relations' cardinalities are
// estimated from zone maps for the greedy ordering.
func (c *Compiled) compileJoins(db *core.Database) error {
	p := c.plan
	if p.AllHeads || len(c.branches) != 1 {
		return fmt.Errorf("%w: a join-composed query scans exactly one version per relation", core.ErrBadQuery)
	}
	if p.OrderCol != "" || p.Limit > 0 {
		return fmt.Errorf("%w: OrderBy/Limit do not apply to join-composed queries", core.ErrBadQuery)
	}

	// Relation 0 is the root plan without its join/group clauses.
	root := *c
	root.plan.Joins = nil
	root.plan.GroupCols = nil
	rels := make([]*Compiled, 1, len(p.Joins)+1)
	rels[0] = &root

	edges := make([]joinEdge, 0, len(p.Joins))
	for _, leg := range p.Joins {
		lp := leg.Plan
		switch {
		case len(lp.Joins) > 0 || len(lp.GroupCols) > 0:
			return fmt.Errorf("%w: a join leg cannot itself compose joins or GroupBy", core.ErrBadQuery)
		case lp.OrderCol != "" || lp.Limit > 0:
			return fmt.Errorf("%w: OrderBy/Limit do not apply to join legs", core.ErrBadQuery)
		case lp.AllHeads || len(lp.Branches) > 1:
			return fmt.Errorf("%w: a join leg scans exactly one branch", core.ErrBadQuery)
		}
		if len(lp.Branches) == 0 {
			lp.Branches = []string{c.branches[0].Name} // inherit the root's branch
		}
		// The no-pruning reference flag spans the whole composed query.
		lp.NoPrune = p.NoPrune
		rc, err := lp.Compile(db)
		if err != nil {
			return err
		}

		li, lci, ltype, err := findJoinCol(rels, leg.LeftCol)
		if err != nil {
			return err
		}
		_, rci, rtype, err := findJoinCol([]*Compiled{rc}, leg.RightCol)
		if err != nil {
			return err
		}
		lBytes, err := joinKeyKind(ltype, leg.LeftCol)
		if err != nil {
			return err
		}
		rBytes, err := joinKeyKind(rtype, leg.RightCol)
		if err != nil {
			return err
		}
		if lBytes != rBytes {
			return fmt.Errorf("%w: join keys %q (%v) and %q (%v) have incompatible types",
				core.ErrTypeMismatch, leg.LeftCol, ltype, leg.RightCol, rtype)
		}
		edges = append(edges, joinEdge{
			left: li, leftCol: lci,
			right: len(rels), rightCol: rci,
			bytesKey: lBytes,
		})
		rels = append(rels, rc)
	}
	c.join = &joinPlan{rels: rels, edges: edges}
	c.join.estimate()
	return nil
}

// findJoinCol resolves a join-key (or group-by) column name against
// the relations' output schemas, in declaration order — the first
// relation emitting the column wins. A column that exists in a
// relation's table schema but was projected out by Select fails with
// ErrBadQuery; a column no relation has fails with ErrNoSuchColumn
// (or ErrColumnNotYetAdded at a pre-evolution version).
func findJoinCol(rels []*Compiled, name string) (relIdx, colIdx int, t record.Type, err error) {
	for i, r := range rels {
		if ci := r.OutSchema().ColumnIndex(name); ci >= 0 {
			return i, ci, r.OutSchema().Column(ci).Type, nil
		}
	}
	for _, r := range rels {
		if r.schema.ColumnIndex(name) >= 0 {
			return 0, 0, 0, fmt.Errorf("%w: column %q is projected out by Select", core.ErrBadQuery, name)
		}
	}
	r0 := rels[0]
	return 0, 0, 0, (colScope{schema: r0.schema, hist: r0.table.History(), epoch: r0.epoch}).missing(name)
}

// joinKeyKind classifies a join-key column type: integer keys hash by
// value, byte-string keys by content. Float64 keys are rejected —
// equality on floats is ill-defined (NaN != NaN), so they are not
// joinable.
func joinKeyKind(t record.Type, name string) (bytesKey bool, err error) {
	switch t {
	case record.Int32, record.Int64:
		return false, nil
	case record.Bytes:
		return true, nil
	}
	return false, fmt.Errorf("%w: column %q: %v keys are not joinable", core.ErrBadQuery, name, t)
}

// estimate fills the per-relation cardinality estimates.
func (jp *joinPlan) estimate() {
	jp.ests = make([]int64, len(jp.rels))
	for i, r := range jp.rels {
		jp.ests[i] = r.estimateRows()
	}
}

// estimateRows is the greedy orderer's cardinality estimate for one
// relation: the sum of (rows − tombstones) over the segments whose
// zone maps the relation's pruning bounds cannot exclude. It reads the
// same partitioned-scan zone maps the ordered visitor uses, without
// scanning a page; units without a zone (mutable heads on some
// engines) contribute nothing, and a failed partition answers a
// pessimistic unknown. Estimates are heuristic — segment rows overcount
// branch-live rows — which is all greedy ordering needs: the result is
// identical in any order.
func (c *Compiled) estimateRows() int64 {
	units, release, _, err := c.table.PartitionUnits(c.request(c.shape()))
	if err != nil {
		return 1 << 40
	}
	defer release()
	spec := c.execSpec()
	var est int64
	for _, u := range units {
		if u.Zone == nil {
			continue
		}
		if spec.ExcludesSegment(u.Zone, u.PhysCols) {
			continue
		}
		if rows := u.Zone.Rows() - u.Zone.Tombstones(); rows > 0 {
			est += rows
		}
	}
	return est
}

// order returns the relation execution order: greedy by estimate
// (smallest relation first, then repeatedly the cheapest relation
// connected to the joined set), or declaration order with noReorder.
func (jp *joinPlan) order(noReorder bool) []int {
	n := len(jp.rels)
	ord := make([]int, 0, n)
	if noReorder {
		for i := 0; i < n; i++ {
			ord = append(ord, i)
		}
		return ord
	}
	in := make([]bool, n)
	start := 0
	for i := 1; i < n; i++ {
		if jp.ests[i] < jp.ests[start] {
			start = i
		}
	}
	ord = append(ord, start)
	in[start] = true
	for len(ord) < n {
		best := -1
		for r := 0; r < n; r++ {
			if in[r] || !jp.connected(r, in) {
				continue
			}
			if best < 0 || jp.ests[r] < jp.ests[best] {
				best = r
			}
		}
		if best < 0 {
			// Unreachable: every leg declares an edge to an earlier
			// relation, so the join graph is connected. Degrade to
			// declaration order rather than loop.
			for r := 0; r < n; r++ {
				if !in[r] {
					best = r
					break
				}
			}
		}
		ord = append(ord, best)
		in[best] = true
	}
	return ord
}

// connected reports whether relation r shares a join edge with the
// already-selected set.
func (jp *joinPlan) connected(r int, in []bool) bool {
	for _, e := range jp.edges {
		if (e.left == r && in[e.right]) || (e.right == r && in[e.left]) {
			return true
		}
	}
	return false
}

// probeKey is one oriented join condition for a probe step: the key
// column of the already-joined side (a relation index plus its column)
// and the key column of the newly probed relation.
type probeKey struct {
	rel, relCol int
	newCol      int
	bytesKey    bool
}

// orient turns the edges connecting relation r to the joined set into
// probe conditions.
func (jp *joinPlan) orient(r int, in []bool) []probeKey {
	var keys []probeKey
	for _, e := range jp.edges {
		switch {
		case e.right == r && in[e.left]:
			keys = append(keys, probeKey{rel: e.left, relCol: e.leftCol, newCol: e.rightCol, bytesKey: e.bytesKey})
		case e.left == r && in[e.right]:
			keys = append(keys, probeKey{rel: e.right, relCol: e.rightCol, newCol: e.leftCol, bytesKey: e.bytesKey})
		}
	}
	return keys
}

// joinKey encodes one key column value for hashing: integers as their
// 8-byte form, byte strings by content.
func joinKey(rec *record.Record, col int, bytesKey bool) string {
	if bytesKey {
		return string(rec.GetBytes(col))
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(rec.Get(col)))
	return string(b[:])
}

// scan streams relation r through its ordinary scan path. Both sides
// clone what they keep — the build side every row, the probe side its
// matches.
func (jp *joinPlan) scan(ctx context.Context, r int, fn core.ScanFunc) error {
	return jp.rels[r].Scan(ctx, fn)
}

// run executes the join and emits the tuples in canonical order.
func (jp *joinPlan) run(ctx context.Context, noReorder bool, fn func(JoinTuple) bool) error {
	ord := jp.order(noReorder)
	n := len(jp.rels)

	// Materialize the first (smallest-estimate) relation.
	var tuples []JoinTuple
	err := jp.scan(ctx, ord[0], func(rec *record.Record) bool {
		t := make(JoinTuple, n)
		t[ord[0]] = rec.Clone()
		tuples = append(tuples, t)
		return true
	})
	if err != nil {
		return err
	}
	in := make([]bool, n)
	in[ord[0]] = true

	for _, r := range ord[1:] {
		if len(tuples) == 0 {
			return nil // inner join: an empty side empties the result
		}
		keys := jp.orient(r, in)
		first, extra := keys[0], keys[1:]
		// Hash-build over the accumulated side (grown from the smallest
		// relations), streaming-probe the new one through its ordinary
		// scan path — matching rows are the only ones materialized.
		build := make(map[string][]int, len(tuples))
		for i, t := range tuples {
			k := joinKey(t[first.rel], first.relCol, first.bytesKey)
			build[k] = append(build[k], i)
		}
		var next []JoinTuple
		err := jp.scan(ctx, r, func(rec *record.Record) bool {
			idxs := build[joinKey(rec, first.newCol, first.bytesKey)]
			if len(idxs) == 0 {
				return true
			}
			var cloned *record.Record
			for _, i := range idxs {
				t := tuples[i]
				if !matchExtra(t, rec, extra) {
					continue
				}
				if cloned == nil {
					cloned = rec.Clone()
				}
				nt := make(JoinTuple, n)
				copy(nt, t)
				nt[r] = cloned
				next = append(next, nt)
			}
			return true
		})
		if err != nil {
			return err
		}
		tuples = next
		in[r] = true
	}

	// Canonical emission order: ascending composite primary-key tuple
	// in relation declaration order. Each relation holds at most one
	// live record per key per version, so the composite is a unique,
	// execution-order-independent total order.
	sort.Slice(tuples, func(i, j int) bool {
		a, b := tuples[i], tuples[j]
		for r := 0; r < n; r++ {
			if d := a[r].PK() - b[r].PK(); d != 0 {
				return d < 0
			}
		}
		return false
	})
	for _, t := range tuples {
		if !fn(t) {
			return nil
		}
	}
	return ctx.Err()
}

// matchExtra checks the remaining join conditions of a probe step
// (several edges tie the new relation to the joined set when a column
// joins it to more than one earlier relation).
func matchExtra(t JoinTuple, rec *record.Record, extra []probeKey) bool {
	for _, k := range extra {
		if joinKey(t[k.rel], k.relCol, k.bytesKey) != joinKey(rec, k.newCol, k.bytesKey) {
			return false
		}
	}
	return true
}

// JoinTuples executes the plan's composed join: each emitted tuple
// holds one record per relation in declaration order, streamed in
// ascending composite primary-key order. Records are cloned — safe to
// retain across iterations.
func (c *Compiled) JoinTuples(ctx context.Context, fn func(JoinTuple) bool) error {
	if c.join == nil {
		return fmt.Errorf("%w: Tuples needs a join-composed query (Join with a join key)", core.ErrBadQuery)
	}
	if len(c.plan.GroupCols) > 0 {
		return fmt.Errorf("%w: a grouped query emits through Groups, not Tuples", core.ErrBadQuery)
	}
	return c.join.run(ctx, c.plan.NoReorder, fn)
}

// JoinOrder exposes the relation execution order the planner chose —
// indices into the declaration order, for tests and benchmarks that
// assert the greedy ordering engaged. Nil for non-join plans.
func (c *Compiled) JoinOrder() []int {
	if c.join == nil {
		return nil
	}
	return c.join.order(c.plan.NoReorder)
}

// JoinEstimates exposes the per-relation zone-map row estimates the
// greedy order was derived from. Nil for non-join plans.
func (c *Compiled) JoinEstimates() []int64 {
	if c.join == nil {
		return nil
	}
	return append([]int64(nil), c.join.ests...)
}
