package query

// N-way equi-join execution. A Plan composes joins as a list of legs —
// each a single-table sub-plan plus the key columns tying it to the
// relations declared before it — and compiling the plan turns the legs
// into a joinPlan: one Compiled per relation (predicate, projection and
// zone-map bounds pushed into each relation's own ScanSpec path) plus
// the equi-join edges between them.
//
// A primary-key join of two versions of one table — the paper's Query
// 3 — runs as a version join (runVersions): both versions read from one
// liveness snapshot, a record both hold read once, and only the keys
// whose copies differ matched by key. Every other join is a left-deep
// hash-join pipeline over a greedy relation order (janus-datalog's
// "greedy beats optimal" result, seeded by the zone maps instead of a
// cost model): start at the relation with the smallest zone-map row
// estimate, then repeatedly take the cheapest relation connected to the
// joined set. The accumulated intermediate — grown from the smallest
// relations — is the hash-build side at every step, and each newly
// added relation streams through its ordinary scan path as the probe
// side, so the largest relations are never materialized beyond their
// matching rows.
//
// Tuples emit in ascending composite primary-key order (relation
// declaration order), a total order over the output that depends on
// neither the path nor the execution order — greedy and declared-order
// runs emit byte-identical streams, which is what the equivalence
// harness asserts.

import (
	"bytes"
	"cmp"
	"context"
	"expvar"
	"fmt"
	"slices"

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
// declaration order (index 0 is the root table). Its records are
// copies the join owns — safe to retain.
type JoinTuple []*record.Record

// joinEdge is one compiled equi-join condition between two relations,
// keyed by each side's column index in that relation's output schema.
type joinEdge struct {
	left, right       int // relation indices, right declared later
	leftCol, rightCol int
	bytesKey          bool
}

// joinPlan is the compiled join: the relations in declaration order,
// the edges between them, each relation's primary-key column in its
// output schema and, for a hash join, the zone-map row estimate per
// relation. versions marks a version join (versionJoin), which has no
// relation order and so no estimates.
type joinPlan struct {
	rels     []*Compiled
	edges    []joinEdge
	pkCols   []int
	ests     []int64
	versions bool
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
	pkCols := make([]int, 1, len(p.Joins)+1)
	pkCols[0] = root.pkCol()
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
		pkCols = append(pkCols, rc.pkCol())
	}
	c.join = &joinPlan{rels: rels, edges: edges, pkCols: pkCols}
	if c.join.versions = c.join.versionJoin(); !c.join.versions {
		c.join.estimate()
	}
	return nil
}

// pkCol returns the primary key's column index in the plan's output
// schema: 0 unless a Select lists it elsewhere (a projection always
// keeps it).
func (c *Compiled) pkCol() int {
	return c.OutSchema().ColumnIndex(c.schema.Column(0).Name)
}

// versionJoin reports whether the join is a version join: two
// relations on one table, each leg one version (a branch head or a
// pinned commit, which every leg is), joined by one edge on the primary
// key at one schema epoch, so that one stored buffer reads as either
// leg's row.
func (jp *joinPlan) versionJoin() bool {
	if len(jp.rels) != 2 || len(jp.edges) != 1 {
		return false
	}
	l, r, e := jp.rels[0], jp.rels[1], jp.edges[0]
	return l.table == r.table && l.epoch == r.epoch &&
		e.leftCol == jp.pkCols[0] && e.rightCol == jp.pkCols[1]
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

// keyIndex is a hash-join step's build side: the accumulated tuples
// indexed by one key. A map holds each key's last tuple and next[i] the
// tuple before i with tuple i's key (-1 ends the chain). Integer keys
// hash as themselves; only byte-string keys are strings.
type keyIndex struct {
	ints map[int64]int32
	strs map[string]int32
	next []int32
}

func newKeyIndex(tuples []JoinTuple, k probeKey) *keyIndex {
	x := &keyIndex{next: make([]int32, len(tuples))}
	if k.bytesKey {
		x.strs = make(map[string]int32, len(tuples))
	} else {
		x.ints = make(map[int64]int32, len(tuples))
	}
	for i, t := range tuples {
		prev, ok := int32(0), false
		if k.bytesKey {
			key := string(t[k.rel].GetBytes(k.relCol))
			prev, ok = x.strs[key]
			x.strs[key] = int32(i)
		} else {
			key := t[k.rel].Get(k.relCol)
			prev, ok = x.ints[key]
			x.ints[key] = int32(i)
		}
		if !ok {
			prev = -1
		}
		x.next[i] = prev
	}
	return x
}

// first returns the last tuple whose key equals rec's column col, or
// -1 when none does.
func (x *keyIndex) first(rec *record.Record, col int) int32 {
	var i int32
	var ok bool
	if x.strs != nil {
		i, ok = x.strs[string(rec.GetBytes(col))]
	} else {
		i, ok = x.ints[rec.Get(col)]
	}
	if !ok {
		return -1
	}
	return i
}

// run executes the join and emits the tuples in canonical order.
func (jp *joinPlan) run(ctx context.Context, noReorder bool, fn func(JoinTuple) bool) error {
	if jp.versions {
		return jp.runVersions(ctx, fn)
	}
	ord := jp.order(noReorder)
	n := len(jp.rels)

	// Materialize the first (smallest-estimate) relation.
	var tuples []JoinTuple
	err := jp.rels[ord[0]].Scan(ctx, func(rec *record.Record) bool {
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
		build := newKeyIndex(tuples, first)
		var next []JoinTuple
		err := jp.rels[r].Scan(ctx, func(rec *record.Record) bool {
			var cloned *record.Record
			for i := build.first(rec, first.newCol); i >= 0; i = build.next[i] {
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
	slices.SortFunc(tuples, func(a, b JoinTuple) int {
		for r, col := range jp.pkCols {
			if c := cmp.Compare(a[r].Get(col), b[r].Get(col)); c != 0 {
				return c
			}
		}
		return 0
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
		a := t[k.rel]
		if k.bytesKey {
			if !bytes.Equal(a.GetBytes(k.relCol), rec.GetBytes(k.newCol)) {
				return false
			}
		} else if a.Get(k.relCol) != rec.Get(k.newCol) {
			return false
		}
	}
	return true
}

// versionJoins counts the joins run as a version join.
var versionJoins = expvar.NewInt("decibel.version_joins")

// keyedPair is one version-join output tuple, with its key.
type keyedPair struct {
	pk   int64
	l, r *record.Record
}

// runVersions executes a version join over one liveness snapshot of
// both versions (core.Table.PairContext). A row both versions hold
// arrives read through both legs' specs and is a joined pair as it
// stands; a row only the left version holds is staged by key, and a row
// only the right one holds probes the staged rows — a key both versions
// hold at different copies. The pairs' records are copied into slabs
// the join never reuses, so a tuple is safe to retain, and the tuples
// are windows of one array, emitted sorted by key: the canonical order.
func (jp *joinPlan) runVersions(ctx context.Context, fn func(JoinTuple) bool) error {
	versionJoins.Add(1)
	l, r := jp.rels[0], jp.rels[1]
	lPK, rPK := jp.pkCols[0], jp.pkCols[1]
	var (
		lSlab, rSlab recSlab
		pairs        []keyedPair
		staged       map[int64]int32 // left-only row's key → its index in lone (no pointers to scan)
		lone         []*record.Record
	)
	legs := [2]core.PairLeg{
		{V: l.version(), Spec: l.execSpec(), Planes: l},
		{V: r.version(), Spec: r.execSpec(), Planes: r},
	}
	err := l.table.PairContext(ctx, legs, func(lrec, rrec *record.Record) {
		switch {
		case rrec == nil:
			if staged == nil {
				staged = make(map[int64]int32)
			}
			staged[lrec.Get(lPK)] = int32(len(lone))
			lone = append(lone, lSlab.copy(lrec))
		case lrec == nil:
			pk := rrec.Get(rPK)
			if i, ok := staged[pk]; ok {
				pairs = append(pairs, keyedPair{pk: pk, l: lone[i], r: rSlab.copy(rrec)})
			}
		default:
			pairs = append(pairs, keyedPair{pk: lrec.Get(lPK), l: lSlab.copy(lrec), r: rSlab.copy(rrec)})
		}
	})
	if err != nil {
		return err
	}
	slices.SortFunc(pairs, func(a, b keyedPair) int { return cmp.Compare(a.pk, b.pk) })
	flat := make([]*record.Record, 2*len(pairs))
	for i, p := range pairs {
		t := flat[2*i : 2*i+2 : 2*i+2]
		t[0], t[1] = p.l, p.r
		if !fn(t) {
			return nil
		}
	}
	return ctx.Err()
}

// recSlab copies records into chunks it never reuses. Each copy is a
// view (record.Reset) over its chunk's bytes, so a caller may keep it,
// and chunks double: n copies allocate O(log n) times, not n.
type recSlab struct {
	recs []record.Record
	buf  []byte
}

// copy returns a copy of rec that the slab owns. Every record a slab
// copies has one schema.
func (s *recSlab) copy(rec *record.Record) *record.Record {
	src := rec.Bytes()
	if len(s.recs) == cap(s.recs) {
		n := max(64, 2*cap(s.recs))
		s.recs = make([]record.Record, 0, n)
		s.buf = make([]byte, 0, n*len(src))
	}
	off := len(s.buf)
	s.buf = append(s.buf, src...)
	s.recs = s.recs[:len(s.recs)+1]
	v := &s.recs[len(s.recs)-1]
	_ = v.Reset(rec.Schema(), s.buf[off:len(s.buf):len(s.buf)]) // src's size: cannot fail
	return v
}

// JoinTuples executes the plan's composed join: each emitted tuple
// holds one record per relation in declaration order, streamed in
// ascending composite primary-key order. The records are copies the
// join owns — safe to retain across iterations.
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
// assert the greedy ordering engaged. Nil for non-join plans and for a
// version join, which has no relation order.
func (c *Compiled) JoinOrder() []int {
	if c.join == nil || c.join.versions {
		return nil
	}
	return c.join.order(c.plan.NoReorder)
}

// JoinEstimates exposes the per-relation zone-map row estimates the
// greedy order was derived from. Nil for non-join plans and for a
// version join, which reads none.
func (c *Compiled) JoinEstimates() []int64 {
	if c.join == nil {
		return nil
	}
	return append([]int64(nil), c.join.ests...)
}
