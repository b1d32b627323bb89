package vf

import (
	"fmt"

	"decibel/internal/bitmap"
	"decibel/internal/record"
	"decibel/internal/store"
)

// interval is a half-open slot range [From, To) of one segment. A
// branch's lineage is an ordered list of steps: earlier steps shadow
// later ones, so a record copy is live iff its key is not claimed by
// any earlier step. Intervals are bounded by branch points ("the
// version-first scanner must be efficient in how it reads records as it
// traverses the ancestor files"), which is what lets a sibling's
// post-fork modifications outrank an ancestor's pre-fork copies.
type interval struct {
	Seg      segID
	From, To int64
}

// step is one element of a lineage: either a slot interval or a merged
// segment's override table. Overrides are the merge-time resolutions a
// pure segment ordering cannot express (e.g. a key whose churn on one
// side nets out to "unchanged" but still left tombstones that would
// wrongly outrank the other side's change). They rank exactly where
// they were created: after the merged segment's own records, before its
// parents.
type step struct {
	iv    interval
	ovr   segID
	isOvr bool
}

// override is one merge-time resolution: the key's winning copy (an
// existing position, preserving copy identity) or its deletion.
type override struct {
	PK      int64 `json:"pk"`
	Seg     segID `json:"seg"`
	Slot    int64 `json:"slot"`
	Deleted bool  `json:"deleted,omitempty"`
}

// claim is the position an override gives its key: the winning copy,
// or store.NoPos for a deletion.
func (ov override) claim() pos {
	if ov.Deleted {
		return store.NoPos
	}
	return pos{Seg: ov.Seg, Slot: ov.Slot}
}

// lineageAt computes the ordered step list for the version at p.
//
// Rules (Section 3.3):
//   - a segment's own records [0, cut) rank first, then its merge
//     overrides (if any);
//   - below them, for a plain branch point, the parent's lineage
//     clipped at the branch offset;
//   - for a merge, the two parents' lineages minus their common (LCA)
//     coverage — ordered by the recorded precedence — and then the LCA
//     lineage itself.
//
// A final pass subtracts already-covered slot ranges (and deduplicates
// override tables) so each range appears exactly once, at its highest
// rank. Proper range subtraction matters: after chained merges the same
// segment can surface first as a middle slice and later as a wider
// range whose upper part is still uncovered.
//
// The result is memoized beside rawLineage's, under the same validity
// argument and the same invalidation, and is shared: callers must not
// modify it.
func (e *Engine) lineageAt(p pos) ([]step, error) {
	if steps, ok := e.stepMemo[p]; ok {
		return steps, nil
	}
	raw, err := e.rawLineage(p)
	if err != nil {
		return nil, err
	}
	covered := make(map[segID]*spanSet)
	ovrDone := make(map[segID]bool)
	var out []step
	for _, st := range raw {
		if st.isOvr {
			if !ovrDone[st.ovr] {
				ovrDone[st.ovr] = true
				out = append(out, st)
			}
			continue
		}
		iv := st.iv
		ss := covered[iv.Seg]
		if ss == nil {
			ss = &spanSet{}
			covered[iv.Seg] = ss
		}
		for _, piece := range ss.subtract(iv.From, iv.To) {
			out = append(out, step{iv: interval{Seg: iv.Seg, From: piece.from, To: piece.to}})
		}
		ss.add(iv.From, iv.To)
	}
	if e.stepMemo != nil {
		if len(e.stepMemo) >= maxLineMemo {
			clear(e.stepMemo)
		}
		e.stepMemo[p] = out
	}
	return out, nil
}

// maxLineMemo bounds each lineage memo (rawLineage's and lineageAt's);
// a memo is cleared wholesale when it fills (entries are cheap to
// recompute one level at a time).
const maxLineMemo = 8192

// rawLineage returns the rank-ordered steps, possibly overlapping,
// memoized per position when the lineage cache is enabled: a
// position's raw lineage depends only on immutable links and override
// tables (see cache.go for the validity argument), and the recursion
// re-visits the same parent and LCA positions at every merge level, so
// memoization makes chained merges linear instead of quadratic.
func (e *Engine) rawLineage(p pos) ([]step, error) {
	if e.lineMemo == nil {
		return e.rawLineageUncached(p)
	}
	if steps, ok := e.lineMemo[p]; ok {
		return steps, nil
	}
	steps, err := e.rawLineageUncached(p)
	if err != nil {
		return nil, err
	}
	if len(e.lineMemo) >= maxLineMemo {
		clear(e.lineMemo)
	}
	e.lineMemo[p] = steps
	return steps, nil
}

// rawLineageUncached computes the rank-ordered steps from the segment
// links; recursive calls go through the memoized rawLineage.
func (e *Engine) rawLineageUncached(p pos) ([]step, error) {
	if int(p.Seg) >= len(e.cat.Segs) {
		return nil, fmt.Errorf("vf: segment %d out of range", p.Seg)
	}
	s := e.cat.Segs[p.Seg]
	out := e.ownSteps(p)
	if !s.hasLink {
		return out, nil
	}
	l := s.link
	if !l.IsMerge {
		parent, err := e.rawLineage(pos{Seg: l.ParentSeg, Slot: l.ParentSlot})
		if err != nil {
			return nil, err
		}
		return append(out, parent...), nil
	}

	parts, common, err := e.mergeParts(l)
	if err != nil {
		return nil, err
	}
	out = append(out, parts...)
	return append(out, common...), nil
}

// ownSteps returns the steps a segment ranks above its link: its own
// records below p's cut, then its merge overrides, if any.
func (e *Engine) ownSteps(p pos) []step {
	out := []step{{iv: interval{Seg: p.Seg, From: 0, To: p.Slot}}}
	if len(e.cat.Segs[p.Seg].overrides) > 0 {
		out = append(out, step{ovr: p.Seg, isOvr: true})
	}
	return out
}

// mergeParts splits a merge link's lineage below its segment's own
// steps into the two parents' post-LCA parts, concatenated in
// precedence order, and the shared lineage of the LCA beneath them. A
// parent's part is its raw lineage clipped to what the LCA's does not
// cover.
func (e *Engine) mergeParts(l link) (parts, common []step, err error) {
	lcaPos, ok := e.commits[l.LCACommit]
	if !ok {
		return nil, nil, fmt.Errorf("vf: merge LCA commit %d has no recorded offset", l.LCACommit)
	}
	if common, err = e.rawLineage(lcaPos); err != nil {
		return nil, nil, err
	}
	coverage := make(map[segID]int64) // max 'To' covered by common, per segment
	for _, st := range common {
		if !st.isOvr && st.iv.To > coverage[st.iv.Seg] {
			coverage[st.iv.Seg] = st.iv.To
		}
	}
	clip := func(u []step, steps []step) []step {
		for _, st := range steps {
			if st.isOvr {
				// An override ranks chronologically before its segment's
				// first record; if the common lineage covers any prefix of
				// that segment, the override belongs to the common part.
				if coverage[st.ovr] == 0 {
					u = append(u, st)
				}
				continue
			}
			iv := st.iv
			from := iv.From
			if c := coverage[iv.Seg]; c > from {
				from = c
			}
			if from < iv.To {
				u = append(u, step{iv: interval{Seg: iv.Seg, From: from, To: iv.To}})
			}
		}
		return u
	}
	first, err := e.rawLineage(pos{Seg: l.ParentSeg, Slot: l.ParentSlot})
	if err != nil {
		return nil, nil, err
	}
	second, err := e.rawLineage(pos{Seg: l.OtherSeg, Slot: l.OtherSlot})
	if err != nil {
		return nil, nil, err
	}
	if !l.PrecedenceFirst {
		first, second = second, first
	}
	return clip(clip(nil, first), second), common, nil
}

// invalidateResolvedLocked drops every cached resolution and memoized
// lineage rooted at the segment. Two callers: Merge, whose new head
// segment gains overrides after its first resolution; and compaction,
// which replaces segment objects (slot numbering is preserved, so the
// drop is conservative rather than required — see cache.go). Caller
// holds e.mu.
func (e *Engine) invalidateResolvedLocked(id segID) {
	if e.pcache != nil {
		e.pcache.drop(func(p pos) bool { return p.Seg == id })
	}
	for p := range e.lineMemo {
		if p.Seg == id {
			delete(e.lineMemo, p)
		}
	}
	for p := range e.stepMemo {
		if p.Seg == id {
			delete(e.stepMemo, p)
		}
	}
}

// Resolution rule (Section 3.3): the copy of a key live at a position
// is the claim of the first lineage step, in rank order, that claims
// the key, and an interval step claims it with its newest copy there; a
// tombstone or a deletion override claims it as absent (store.NoPos).
// firstClaimsLocked applies the rule by scanning the steps' slots;
// claimLocked (scan.go) and indexPlanLocked (cache.go) apply it to the
// copies the version index lists, newest first, so within a step the
// first copy met wins.

// resolveLiveFull builds the plan of p with a full lineage walk, every
// key's first claim that is not absent: the scanning reference the
// cache-off switch and the plan tests hold the cache and the version
// index to. Caller holds e.mu.
func (e *Engine) resolveLiveFull(p pos) (*planEntry, error) {
	lineage, err := e.lineageAt(p)
	if err != nil {
		return nil, err
	}
	claims, err := e.firstClaimsLocked(lineage)
	if err != nil {
		return nil, err
	}
	en := &planEntry{segs: make([]*bitmap.Bitmap, len(e.cat.Segs))}
	for _, q := range claims {
		if q != store.NoPos {
			e.addSlot(en, q)
		}
	}
	return en, nil
}

// firstClaimsLocked maps every key the steps claim to its first claim,
// store.NoPos for a key claimed as absent. The steps are applied last
// to first, each interval scanned in ascending slot order, and every
// claim overwrites the one before it: what is left for a key is its
// newest copy in the first step that claims it. Key extraction is
// schema-version-free: the primary key and the tombstone flag sit at
// fixed offsets in every physical layout. Caller holds e.mu.
func (e *Engine) firstClaimsLocked(steps []step) (map[int64]pos, error) {
	n := 0
	for _, st := range steps {
		if st.isOvr {
			n += len(e.cat.Segs[st.ovr].overrides)
		} else {
			n += int(st.iv.To - st.iv.From)
		}
	}
	claims := make(map[int64]pos, n)
	for i := len(steps) - 1; i >= 0; i-- {
		st := steps[i]
		if st.isOvr {
			ovs := e.cat.Segs[st.ovr].overrides
			for j := len(ovs) - 1; j >= 0; j-- {
				claims[ovs[j].PK] = ovs[j].claim()
			}
			continue
		}
		err := e.cat.Segs[st.iv.Seg].File.Scan(st.iv.From, st.iv.To, func(slot int64, buf []byte) bool {
			q := pos{Seg: st.iv.Seg, Slot: slot}
			if record.TombstoneOf(buf) {
				q = store.NoPos
			}
			claims[record.PKOf(buf)] = q
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	return claims, nil
}

// span is a half-open slot range.
type span struct{ from, to int64 }

// spanSet is a sorted set of disjoint spans.
type spanSet struct{ spans []span }

// subtract returns the pieces of [from, to) not covered by the set, in
// ascending order.
func (s *spanSet) subtract(from, to int64) []span {
	var out []span
	cur := from
	for _, sp := range s.spans {
		if sp.to <= cur {
			continue
		}
		if sp.from >= to {
			break
		}
		if sp.from > cur {
			out = append(out, span{from: cur, to: min(sp.from, to)})
		}
		if sp.to > cur {
			cur = sp.to
		}
		if cur >= to {
			return out
		}
	}
	if cur < to {
		out = append(out, span{from: cur, to: to})
	}
	return out
}

// add merges [from, to) into the set.
func (s *spanSet) add(from, to int64) {
	if from >= to {
		return
	}
	var merged []span
	inserted := false
	for _, sp := range s.spans {
		switch {
		case sp.to < from:
			merged = append(merged, sp)
		case sp.from > to:
			if !inserted {
				merged = append(merged, span{from, to})
				inserted = true
			}
			merged = append(merged, sp)
		default: // overlap or adjacency: absorb
			if sp.from < from {
				from = sp.from
			}
			if sp.to > to {
				to = sp.to
			}
		}
	}
	if !inserted {
		merged = append(merged, span{from, to})
	}
	s.spans = merged
}
