package query

// Bounds extraction: the planner walks the typed predicate AST and
// derives, per referenced column, a conservative interval every
// matching record must fall into. The bounds ride on the compiled
// core.ScanSpec; engines test them against each segment's zone map
// (internal/store) and skip whole segments no matching record can
// live in. Conservativeness is the only contract — the compiled
// predicate still runs on every surviving record — so any node the
// walk cannot analyze simply contributes no constraint.

import (
	"bytes"
	"math"
	"sort"

	"decibel/internal/core"
	"decibel/internal/record"
	"decibel/internal/store"
)

// boundSet maps schema column index -> interval; a nil set means
// "no constraint derivable".
type boundSet map[int]*core.Bound

// extractBounds derives the spec bounds for e compiled against sc.
// It never fails: predicates the walk cannot analyze (Ne, Not, type
// errors the predicate compiler will surface anyway) yield fewer or no
// bounds.
func extractBounds(e Expr, sc colScope) []core.Bound {
	bs := boundsNode(e, sc)
	if len(bs) == 0 {
		return nil
	}
	out := make([]core.Bound, 0, len(bs))
	for _, b := range bs {
		if b.HasMin || b.HasMax {
			out = append(out, *b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Col < out[j].Col })
	return out
}

func boundsNode(e Expr, sc colScope) boundSet {
	if e.isAll() {
		return nil
	}
	switch e.kind {
	case exprLeaf:
		return boundsLeaf(e, sc)
	case exprAnd:
		var acc boundSet
		for _, k := range e.kids {
			acc = intersectSets(acc, boundsNode(k, sc))
		}
		return acc
	case exprOr:
		if len(e.kids) == 0 {
			return nil
		}
		acc := boundsNode(e.kids[0], sc)
		for _, k := range e.kids[1:] {
			acc = unionSets(acc, boundsNode(k, sc))
			if acc == nil {
				return nil
			}
		}
		return acc
	default: // Not, unknown nodes: no constraint
		return nil
	}
}

func boundsLeaf(e Expr, sc colScope) boundSet {
	i := sc.schema.ColumnIndex(e.col)
	if i < 0 {
		return nil
	}
	c := sc.schema.Column(i)
	b := &core.Bound{Col: i, Type: c.Type}
	switch c.Type {
	case record.Int32, record.Int64:
		v, ok := record.AsInt64(e.val)
		if !ok {
			return nil
		}
		switch e.op {
		case OpEq:
			b.HasMin, b.MinI = true, v
			b.HasMax, b.MaxI = true, v
		case OpLt:
			if v == math.MinInt64 {
				return nil
			}
			b.HasMax, b.MaxI = true, v-1
		case OpLe:
			b.HasMax, b.MaxI = true, v
		case OpGt:
			if v == math.MaxInt64 {
				return nil
			}
			b.HasMin, b.MinI = true, v+1
		case OpGe:
			b.HasMin, b.MinI = true, v
		default:
			return nil
		}
	case record.Float64:
		v, ok := record.AsFloat64(e.val)
		if !ok || math.IsNaN(v) {
			return nil
		}
		switch e.op {
		case OpEq:
			b.HasMin, b.MinF = true, v
			b.HasMax, b.MaxF = true, v
		case OpLt, OpLe: // Lt kept inclusive: conservative, still correct
			b.HasMax, b.MaxF = true, v
		case OpGt, OpGe:
			b.HasMin, b.MinF = true, v
		default:
			return nil
		}
	case record.Bytes:
		v, ok := record.AsBytes(e.val)
		if !ok {
			return nil
		}
		switch e.op {
		case OpEq:
			b.HasMin, b.MinB = true, v
			b.HasMax, b.MaxB = true, v
		case OpLt:
			b.HasMax, b.MaxB, b.MaxBExcl = true, v, true
		case OpLe:
			b.HasMax, b.MaxB = true, v
		case OpGt:
			b.HasMin, b.MinB, b.MinBExcl = true, v, true
		case OpGe:
			b.HasMin, b.MinB = true, v
		case OpPrefix:
			// Values with prefix p form the range [p, succ(p)).
			b.HasMin, b.MinB = true, v
			if s, ok := store.BytesSucc(v); ok {
				b.HasMax, b.MaxB, b.MaxBExcl = true, s, true
			}
		default:
			return nil
		}
	default:
		return nil
	}
	return boundSet{i: b}
}

// intersectSets conjoins two bound sets (AND): constraints on the same
// column tighten each other, and either side's exclusive columns carry
// over. A nil side constrains nothing.
func intersectSets(a, b boundSet) boundSet {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	for col, sb := range b {
		if sa, ok := a[col]; ok {
			tightenMin(sa, sb)
			tightenMax(sa, sb)
		} else {
			a[col] = sb
		}
	}
	return a
}

// unionSets disjoins two bound sets (OR): only columns constrained on
// BOTH sides stay constrained, with the looser end of each interval
// winning. Either side being unconstrained makes the whole disjunction
// unconstrained.
func unionSets(a, b boundSet) boundSet {
	if a == nil || b == nil {
		return nil
	}
	out := make(boundSet)
	for col, sa := range a {
		sb, ok := b[col]
		if !ok {
			continue
		}
		m := *sa
		loosenMin(&m, sb)
		loosenMax(&m, sb)
		if m.HasMin || m.HasMax {
			out[col] = &m
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// tightenMin raises dst's lower end to src's when src's is stricter.
func tightenMin(dst, src *core.Bound) {
	if !src.HasMin {
		return
	}
	if !dst.HasMin {
		dst.HasMin = true
		copyMin(dst, src)
		return
	}
	switch cmpMin(src, dst) {
	case +1:
		copyMin(dst, src)
	case 0:
		if src.MinBExcl {
			dst.MinBExcl = true
		}
	}
}

// tightenMax lowers dst's upper end to src's when src's is stricter.
func tightenMax(dst, src *core.Bound) {
	if !src.HasMax {
		return
	}
	if !dst.HasMax {
		dst.HasMax = true
		copyMax(dst, src)
		return
	}
	switch cmpMax(src, dst) {
	case -1:
		copyMax(dst, src)
	case 0:
		if src.MaxBExcl {
			dst.MaxBExcl = true
		}
	}
}

// loosenMin lowers dst's lower end to src's (or drops it when src has
// none) so dst covers both intervals.
func loosenMin(dst, src *core.Bound) {
	if !dst.HasMin {
		return
	}
	if !src.HasMin {
		dst.HasMin = false
		return
	}
	switch cmpMin(src, dst) {
	case -1:
		copyMin(dst, src)
	case 0:
		if !src.MinBExcl {
			dst.MinBExcl = false
		}
	}
}

// loosenMax raises dst's upper end to src's (or drops it) so dst
// covers both intervals.
func loosenMax(dst, src *core.Bound) {
	if !dst.HasMax {
		return
	}
	if !src.HasMax {
		dst.HasMax = false
		return
	}
	switch cmpMax(src, dst) {
	case +1:
		copyMax(dst, src)
	case 0:
		if !src.MaxBExcl {
			dst.MaxBExcl = false
		}
	}
}

func copyMin(dst, src *core.Bound) {
	dst.MinI, dst.MinF, dst.MinB, dst.MinBExcl = src.MinI, src.MinF, src.MinB, src.MinBExcl
}

func copyMax(dst, src *core.Bound) {
	dst.MaxI, dst.MaxF, dst.MaxB, dst.MaxBExcl = src.MaxI, src.MaxF, src.MaxB, src.MaxBExcl
}

// cmpMin orders two lower ends (-1: a below b).
func cmpMin(a, b *core.Bound) int {
	switch a.Type {
	case record.Int32, record.Int64:
		return cmpI(a.MinI, b.MinI)
	case record.Float64:
		return cmpF(a.MinF, b.MinF)
	default:
		return bytes.Compare(a.MinB, b.MinB)
	}
}

// cmpMax orders two upper ends (-1: a below b).
func cmpMax(a, b *core.Bound) int {
	switch a.Type {
	case record.Int32, record.Int64:
		return cmpI(a.MaxI, b.MaxI)
	case record.Float64:
		return cmpF(a.MaxF, b.MaxF)
	default:
		return bytes.Compare(a.MaxB, b.MaxB)
	}
}

func cmpI(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return +1
	default:
		return 0
	}
}

func cmpF(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return +1
	default:
		return 0
	}
}
