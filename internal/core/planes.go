package core

import (
	"math/bits"

	"decibel/internal/store"
)

// The plane pre-filter. A decoded dcz page keeps its dict- and
// const-encoded planes beside its rows (store.Page): for each such
// column, a one-byte code per row and the column's distinct values.
// A predicate split at its single-column subtrees is decided on those
// planes before any row is touched: each subtree is evaluated once per
// distinct value of its column into a 256-entry table (once in all for
// a const plane), and the tables combine 64 rows at a time through the
// predicate's And/Or/Not. Only the live rows the planes do not rule out
// are visited, and the full row predicate still decides each of them.
//
// The logic is three-valued, like a zone map's: a subtree over a raw or
// delta plane — or a column the page has no plane for — is unknown, so
// a row is dropped only when the planes prove the predicate false on
// it. Correctness never depends on this path.

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
		pl := findPlane(pg.Planes, nd.Off, nd.Width)
		if pl == nil {
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

func findPlane(pls []store.Plane, off, width int) *store.Plane {
	for i := range pls {
		if pls[i].Off == off && pls[i].Width == width {
			return &pls[i]
		}
	}
	return nil
}

// word returns the rows [at, at+n) of the prepared page that the planes
// do not rule out, row at+k as bit k. Without a dict step the result is
// the same for every word: all rows or none.
func (p *planeProg) word(at, n int) uint64 {
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
	return p.stack[0].may
}

// walkPlanes walks page p of cf — per slots a page, the segment's slots
// ending at end in the space's numbering — by its planes: it visits the
// live slots the planes do not rule out, and counts the page skipped
// when that is none of them. handled is false when the planes rule out
// no row of the page, which then walks as rows.
func (w *slotWalker) walkPlanes(cf *store.CompressedFile, p, per, end int64) (handled bool, err error) {
	pg, err := cf.Page(int(p))
	if err != nil {
		return true, err
	}
	pp := w.planes
	if !pp.prepare(pg) {
		return false, nil
	}
	if !pp.dict {
		// Every step is constant on the page: it matches all or none.
		if pp.word(0, 0) != 0 {
			return false, nil
		}
		w.skipped++
		return true, nil
	}
	first := w.base + p*per
	rows := int(min(per, end-first))
	rs := cf.RecordSize()
	visited := false
words:
	for at := 0; at < rows; at += 64 {
		n := min(64, rows-at)
		live := w.bm.Word(int(first) + at)
		if n < 64 {
			live &= 1<<uint(n) - 1
		}
		if live == 0 {
			continue
		}
		for live &= pp.word(at, n); live != 0; live &= live - 1 {
			r := at + bits.TrailingZeros64(live)
			visited = true
			if !w.visit(first+int64(r), pg.Rows[r*rs:(r+1)*rs]) {
				w.stopped = true
				break words
			}
		}
	}
	if visited {
		w.scanned++
	} else {
		w.skipped++
	}
	return true, nil
}
