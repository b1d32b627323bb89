package core

import "decibel/internal/store"

// The plane pre-filter. A decoded dcz page keeps its dict- and
// const-encoded planes beside its rows (store.Page): for each such
// column, a one-byte code per row and the column's distinct values.
// A predicate split at its single-column subtrees is decided on those
// planes before any row is touched: each subtree is evaluated once per
// distinct value of its column into a 256-entry table (once in all for
// a const plane), and the tables combine 64 rows at a time through the
// predicate's And/Or/Not. The unit walk (walk.go) ANDs them into the
// page's selection words: a row the planes rule out is dropped, one
// they prove is selected unchecked, and the row predicate decides only
// the rows they leave undecided, whichever consumer — the row emitter
// or a page sink — then reads the words.
//
// The logic is three-valued, like a zone map's: a subtree over a raw or
// delta plane — or a column the page has no plane for — is unknown, so
// a row is dropped only when the planes prove the predicate false on
// it, and taken unchecked only when they prove it true.

// PlaneOp is one step of a plane program.
type PlaneOp uint8

const (
	// PlaneCol decides one single-column subtree of the predicate.
	PlaneCol PlaneOp = iota
	// PlaneAnd combines the N operands on top of the stack.
	PlaneAnd
	// PlaneOr combines the N operands on top of the stack.
	PlaneOr
	// PlaneNot negates the operand on top of the stack.
	PlaneNot
	// PlaneTrue pushes a subtree that matches every row.
	PlaneTrue
)

// PlaneNode is one step of a plane program, in postfix order.
type PlaneNode struct {
	Op PlaneOp
	N  int // PlaneAnd, PlaneOr: operand count
	// Off and Width are a PlaneCol step's column byte range in the
	// scan's target layout; Match is its subtree over a record buffer,
	// which reads only that range.
	Off, Width int
	Match      func(buf []byte) bool
}

// PlaneSource yields a predicate's plane program. A scan asks once,
// when it first meets a dcz page, so a read that meets none — a point
// lookup, a scan of heap pages — pays nothing for it. nil steps mean
// the predicate has nothing to decide by planes.
type PlaneSource interface {
	PlaneNodes() []PlaneNode
}

// tri is a three-valued row mask: may holds the rows not proven false,
// must the rows proven true.
type tri struct{ may, must uint64 }

// planeLeaf is one PlaneCol step's state on the current page.
type planeLeaf struct {
	codes []byte // a dict plane's per-row codes; nil: the step is constant on the page
	t     tri    // constant steps: the page-wide value
	table [256]uint8
}

// planeProg is one scan's plane program: the steps and the per-page
// tables they fill.
type planeProg struct {
	nodes  []PlaneNode
	leaves []planeLeaf // one per PlaneCol step, in order
	stack  []tri
	rec    []byte // the record buffer a plane value is matched in
	dict   bool   // some step reads codes on the current page
}

func newPlaneProg(nodes []PlaneNode, recSize int) *planeProg {
	p := &planeProg{nodes: nodes, stack: make([]tri, len(nodes)), rec: make([]byte, recSize)}
	n := 0
	for i := range nodes {
		if nodes[i].Op == PlaneCol {
			n++
		}
	}
	p.leaves = make([]planeLeaf, n)
	return p
}

// prepare fills the steps' tables from pg's planes. It reports whether
// any step is decided by a plane: when none is, the planes can rule out
// nothing and the page walks as rows.
func (p *planeProg) prepare(pg *store.Page) bool {
	decided := false
	p.dict = false
	li := 0
	for i := range p.nodes {
		nd := &p.nodes[i]
		if nd.Op != PlaneCol {
			continue
		}
		lf := &p.leaves[li]
		li++
		lf.codes, lf.t = nil, tri{may: ^uint64(0)}
		pl, raw := pg.Column(nd.Off, nd.Width)
		if pl == nil || raw {
			continue
		}
		decided = true
		if pl.Codes == nil {
			if p.match(nd, pl.Values) {
				lf.t.must = ^uint64(0)
			} else {
				lf.t.may = 0
			}
			continue
		}
		for v, at := 0, 0; at < len(pl.Values); v, at = v+1, at+nd.Width {
			lf.table[v] = 0
			if p.match(nd, pl.Values[at:at+nd.Width]) {
				lf.table[v] = 1
			}
		}
		lf.codes = pl.Codes
		p.dict = true
	}
	return decided
}

// match evaluates a step's subtree on one value of its column.
func (p *planeProg) match(nd *PlaneNode, v []byte) bool {
	copy(p.rec[nd.Off:nd.Off+nd.Width], v)
	return nd.Match(p.rec)
}

// word returns what the planes decide of the rows [at, at+n) of the
// prepared page, row at+k as bit k: may holds the rows they do not rule
// out, must those they prove match. Without a dict step the result is
// the same for every word: all rows or none.
func (p *planeProg) word(at, n int) tri {
	sp, li := 0, 0
	for i := range p.nodes {
		nd := &p.nodes[i]
		switch nd.Op {
		case PlaneCol:
			lf := &p.leaves[li]
			li++
			t := lf.t
			if lf.codes != nil {
				var b uint64
				for k, c := range lf.codes[at : at+n] {
					b |= uint64(lf.table[c]) << uint(k)
				}
				t = tri{b, b}
			}
			p.stack[sp] = t
			sp++
		case PlaneTrue:
			p.stack[sp] = tri{^uint64(0), ^uint64(0)}
			sp++
		case PlaneNot:
			t := p.stack[sp-1]
			p.stack[sp-1] = tri{^t.must, ^t.may}
		case PlaneAnd, PlaneOr:
			sp -= nd.N
			t := p.stack[sp]
			for _, k := range p.stack[sp+1 : sp+nd.N] {
				if nd.Op == PlaneAnd {
					t.may, t.must = t.may&k.may, t.must&k.must
				} else {
					t.may, t.must = t.may|k.may, t.must|k.must
				}
			}
			p.stack[sp] = t
			sp++
		}
	}
	return p.stack[0]
}
