package main

import (
	"math"
	"sort"

	"decibel"
	"decibel/client"
)

// pred is the one predicate shape the workloads use — a conjunction of
// ts >= tsGe, amt < amtLt, cat < catLt and cat ∈ cats, each optional —
// with the three forms the benchmark needs: the model's, the facade's
// and the wire's.
type pred struct {
	tsGe  int64   // 0 = unconstrained
	amtLt float64 // 0 = unconstrained
	catLt int64   // 0 = unconstrained
	cats  []int64 // nil = unconstrained
}

func (p pred) match(f fields) bool {
	if f.ts < p.tsGe {
		return false
	}
	if p.amtLt != 0 && !(f.amt < p.amtLt) {
		return false
	}
	if p.catLt != 0 && !(f.cat < p.catLt) {
		return false
	}
	if p.cats == nil {
		return true
	}
	for _, c := range p.cats {
		if f.cat == c {
			return true
		}
	}
	return false
}

func (p pred) expr() decibel.Expr {
	var parts []decibel.Expr
	if p.tsGe != 0 {
		parts = append(parts, decibel.Col("ts").Ge(p.tsGe))
	}
	if p.amtLt != 0 {
		parts = append(parts, decibel.Col("amt").Lt(p.amtLt))
	}
	if p.catLt != 0 {
		parts = append(parts, decibel.Col("cat").Lt(p.catLt))
	}
	if p.cats != nil {
		in := decibel.Col("cat").Eq(p.cats[0])
		for _, c := range p.cats[1:] {
			in = in.Or(decibel.Col("cat").Eq(c))
		}
		parts = append(parts, in)
	}
	e := parts[0]
	for _, part := range parts[1:] {
		e = e.And(part)
	}
	return e
}

func (p pred) wire() *client.Expr {
	var and []client.Expr
	if p.tsGe != 0 {
		and = append(and, client.Expr{Col: "ts", Op: "ge", Val: p.tsGe})
	}
	if p.amtLt != 0 {
		and = append(and, client.Expr{Col: "amt", Op: "lt", Val: p.amtLt})
	}
	if p.catLt != 0 {
		and = append(and, client.Expr{Col: "cat", Op: "lt", Val: p.catLt})
	}
	if p.cats != nil {
		var or []client.Expr
		for _, c := range p.cats {
			or = append(or, client.Expr{Col: "cat", Op: "eq", Val: c})
		}
		and = append(and, client.Expr{Or: or})
	}
	return &client.Expr{And: and}
}

// queries are a workload's read shapes. The served workload sends small
// requests: the scans keep the newest 100 matches (ts is unique, so the
// order is total) and the join and heads predicates are tighter.
type queries struct {
	q1, q2, q3, q4 pred
	limit          int // q1 and q2: OrderBy(ts desc).Limit(limit); 0 = all rows
}

func queriesFor(w *workload) queries {
	q := queries{
		q1: pred{amtLt: 30000, cats: []int64{1, 4, 7, 10, 13, 16, 19, 22}}, // ~10%
		q2: pred{catLt: 12},
		q3: pred{catLt: 6},
		q4: pred{cats: []int64{3}},
	}
	if w.q1Recent {
		// The newer half of the base rows (ts ascends with id), twice the
		// amt range: still ~10% of a branch, but the segments the mainline
		// ingested first hold nothing it can match.
		q.q1.tsGe, q.q1.amtLt = int64(w.rows/2)*1000, 60000
	}
	if w.served {
		q.limit = 100
		q.q3 = pred{amtLt: 10000, cats: []int64{3}}
		q.q4 = pred{amtLt: 10000, cats: []int64{3}}
	}
	return q
}

// projected are the columns every row-returning query selects.
var projected = []string{"id", "amt", "cat"}

// result is what a query returned or should have: a row count and an
// order-independent checksum (the wrapping sum of row digests).
type result struct {
	n   int
	sum uint64
}

func rowDigest(id int64, amt float64, cat int64) uint64 {
	return mix(uint64(id)*0x9E3779B97F4A7C15 ^ math.Float64bits(amt)*0xC2B2AE3D27D4EB4F ^ uint64(cat))
}

func (r *result) add(d uint64) { r.n++; r.sum += d }

// memberDigest folds the indexes (in branch creation order) of the
// heads a record is live in.
func memberDigest(h uint64, idx int) uint64 { return h*1099511628211 + uint64(idx) + 1 }

// group is one GroupBy(cat) row: Count, Sum(amt), Avg(qty), and for
// head verification Sum(ts) and Sum(qty).
type group struct {
	n   int64
	amt float64
	avg float64
	ts  float64
	qty float64
}

type groups [numCats]group

// equal compares group tables: counts and sums exactly (all sums are
// exact in float64 by construction), the average to a relative 1e-12.
func (a *groups) equal(b *groups) bool {
	for i := range a {
		x, y := a[i], b[i]
		if x.n != y.n || x.amt != y.amt || x.ts != y.ts || x.qty != y.qty {
			return false
		}
		if math.Abs(x.avg-y.avg) > 1e-12*math.Max(1, math.Abs(y.avg)) {
			return false
		}
	}
	return true
}

// The model's side of every query.

func (r *runner) liveFields(branch string, fn func(pk int64, f fields)) {
	for pk, st := range r.s.m.heads[branch] {
		if live(st) {
			fn(int64(pk), r.g.fieldsOf(int64(pk), st))
		}
	}
}

// topByTS keeps the limit rows with the largest ts, i.e. the largest
// primary keys.
func topByTS(rows []int64, limit int) []int64 {
	if limit == 0 || len(rows) <= limit {
		return rows
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i] > rows[j] })
	return rows[:limit]
}

func (r *runner) wantScan(branch string, p pred, limit int) result {
	var res result
	var pks []int64
	h := r.s.m.heads[branch]
	r.liveFields(branch, func(pk int64, f fields) {
		if p.match(f) {
			pks = append(pks, pk)
		}
	})
	for _, pk := range topByTS(pks, limit) {
		f := r.g.fieldsOf(pk, h[pk])
		res.add(rowDigest(pk, f.amt, f.cat))
	}
	return res
}

// wantDiff is the positive diff: rows live in a whose version b does
// not hold.
func (r *runner) wantDiff(a, b string, p pred, limit int) result {
	var res result
	var pks []int64
	ha := r.s.m.heads[a]
	r.liveFields(a, func(pk int64, f fields) {
		if r.s.m.state(b, pk) != ha[pk] && p.match(f) {
			pks = append(pks, pk)
		}
	})
	for _, pk := range topByTS(pks, limit) {
		f := r.g.fieldsOf(pk, ha[pk])
		res.add(rowDigest(pk, f.amt, f.cat))
	}
	return res
}

// wantJoin is left ⋈ right on id, with p on the left rows.
func (r *runner) wantJoin(left, right string, p pred) result {
	var res result
	r.liveFields(left, func(pk int64, f fields) {
		st := r.s.m.state(right, pk)
		if !live(st) || !p.match(f) {
			return
		}
		g := r.g.fieldsOf(pk, st)
		res.add(rowDigest(pk, f.amt, f.cat) + 31*rowDigest(pk, g.amt, g.cat))
	})
	return res
}

// versions calls fn once for every distinct row version live in any
// head, with the digest of the heads (by creation index) that hold it.
func (m *model) versions(fn func(pk int64, st int32, members uint64)) {
	heads := make([][]int32, len(m.order))
	longest := 0
	for i, name := range m.order {
		heads[i] = m.heads[name]
		longest = max(longest, len(heads[i]))
	}
	var states []int32
	var members []uint64
	for pk := 0; pk < longest; pk++ {
		states, members = states[:0], members[:0]
		for i, h := range heads {
			if pk >= len(h) || !live(h[pk]) {
				continue
			}
			k := 0
			for k < len(states) && states[k] != h[pk] {
				k++
			}
			if k == len(states) {
				states, members = append(states, h[pk]), append(members, 0)
			}
			members[k] = memberDigest(members[k], i)
		}
		for k, st := range states {
			fn(int64(pk), st, members[k])
		}
	}
}

// wantHeads is the HEAD() scan: every distinct row version live in any
// head, once, with the set of heads that hold it.
func (r *runner) wantHeads(p pred) result {
	var res result
	r.s.m.versions(func(pk int64, st int32, members uint64) {
		if f := r.g.fieldsOf(pk, st); p.match(f) {
			res.add(rowDigest(pk, f.amt, f.cat) ^ mix(members))
		}
	})
	return res
}

func (r *runner) wantGroups(branch string) *groups {
	var gs groups
	var qty [numCats]int64
	r.liveFields(branch, func(pk int64, f fields) {
		g := &gs[f.cat]
		g.n++
		g.amt += f.amt
		g.ts += float64(f.ts)
		qty[f.cat] += f.qty
	})
	for i := range gs {
		gs[i].qty = float64(qty[i])
		if gs[i].n > 0 {
			gs[i].avg = float64(qty[i]) / float64(gs[i].n)
		}
	}
	return &gs
}

func (r *runner) wantPoint(branch string, pk int64) result {
	var res result
	if st := r.s.m.state(branch, pk); live(st) {
		f := r.g.fieldsOf(pk, st)
		res.add(rowDigest(pk, f.amt, f.cat) + uint64(f.ts) + uint64(f.qty))
	}
	return res
}
