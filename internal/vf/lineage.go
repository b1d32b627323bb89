package vf

import (
	"fmt"

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

type intervalKey = interval

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

// tableEntry is the newest state of one key within an interval.
type tableEntry struct {
	Slot      int64
	Tombstone bool
}

// claim is the position an entry of an interval of segment seg gives
// its key: the newest copy, or store.NoPos for a tombstone.
func (en tableEntry) claim(seg segID) pos {
	if en.Tombstone {
		return store.NoPos
	}
	return pos{Seg: seg, Slot: en.Slot}
}

// intervalTable maps each primary key appearing in an interval to its
// newest copy in that interval. This is the "in-memory hash table ...
// for each portion of each segment file" of the paper's multi-branch
// scanner; single-branch scans reuse the same tables through the cache.
type intervalTable map[int64]tableEntry

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

// invalidateSeg drops cached tables whose interval touches the segment
// (head segments grow; their open-ended tables go stale).
func (e *Engine) invalidateSeg(id segID) {
	for k := range e.cache {
		if k.Seg == id {
			delete(e.cache, k)
		}
	}
}

// table returns the interval's key table, building and caching it with
// one sequential scan of the slot range. Within an interval the newest
// copy of a key wins (updates append new copies; deletes append
// tombstones).
func (e *Engine) table(iv interval) (intervalTable, error) {
	if t, ok := e.cache[iv]; ok {
		return t, nil
	}
	t := make(intervalTable, iv.To-iv.From)
	// Key extraction is schema-version-free: the primary key and the
	// tombstone flag sit at fixed offsets in every physical layout.
	err := e.cat.Segs[iv.Seg].File.Scan(iv.From, iv.To, func(slot int64, buf []byte) bool {
		t[record.PKOf(buf)] = tableEntry{Slot: slot, Tombstone: record.TombstoneOf(buf)}
		return true
	})
	if err != nil {
		return nil, err
	}
	e.cache[iv] = t
	return t, nil
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
// the key; a tombstone or a deletion override claims it as absent
// (store.NoPos). firstClaimsLocked applies the rule to every key of a
// step list, claimAt and rebaseLocked (cache.go) to one key at a time.

// resolveLiveFull computes the live set with a full lineage walk: every
// key's first claim, with the keys claimed as absent purged at the end.
// Caller holds e.mu.
func (e *Engine) resolveLiveFull(p pos) (map[int64]pos, error) {
	lineage, err := e.lineageAt(p)
	if err != nil {
		return nil, err
	}
	live, err := e.firstClaimsLocked(lineage)
	if err != nil {
		return nil, err
	}
	for pk, q := range live {
		if q == store.NoPos {
			delete(live, pk)
		}
	}
	return live, nil
}

// tablesLocked returns the key tables of the steps, nil at an override
// step. Caller holds e.mu.
func (e *Engine) tablesLocked(steps []step) ([]intervalTable, error) {
	tables := make([]intervalTable, len(steps))
	for i, st := range steps {
		if !st.isOvr && st.iv.From < st.iv.To {
			var err error
			if tables[i], err = e.table(st.iv); err != nil {
				return nil, err
			}
		}
	}
	return tables, nil
}

// firstClaimsLocked maps every key the steps claim to its first claim,
// store.NoPos for a key claimed as absent. The one map is sized for
// every claim the steps can make. Caller holds e.mu.
func (e *Engine) firstClaimsLocked(steps []step) (map[int64]pos, error) {
	tables, err := e.tablesLocked(steps)
	if err != nil {
		return nil, err
	}
	n := 0
	for i, st := range steps {
		if st.isOvr {
			n += len(e.cat.Segs[st.ovr].overrides)
		} else {
			n += len(tables[i])
		}
	}
	claims := make(map[int64]pos, n)
	for i, st := range steps {
		if st.isOvr {
			for _, ov := range e.cat.Segs[st.ovr].overrides {
				if _, claimed := claims[ov.PK]; !claimed {
					claims[ov.PK] = ov.claim()
				}
			}
			continue
		}
		for pk, en := range tables[i] {
			if _, claimed := claims[pk]; !claimed {
				claims[pk] = en.claim(st.iv.Seg)
			}
		}
	}
	return claims, nil
}

// claimAt returns the copy of pk live at p, store.NoPos when it has
// none, probing each lineage step for the one key instead of resolving
// the live set. Caller holds e.mu.
func (e *Engine) claimAt(p pos, pk int64) (pos, error) {
	lineage, err := e.lineageAt(p)
	if err != nil {
		return pos{}, err
	}
	for _, st := range lineage {
		var t intervalTable
		if !st.isOvr {
			if t, err = e.table(st.iv); err != nil {
				return pos{}, err
			}
		}
		if q, ok := e.stepClaim(st, t, pk); ok {
			return q, nil
		}
	}
	return store.NoPos, nil
}

// stepClaim returns the claim one step, with key table t (nil for an
// override step), makes on pk, and whether it makes one. Caller holds
// e.mu.
func (e *Engine) stepClaim(st step, t intervalTable, pk int64) (pos, bool) {
	if st.isOvr {
		for _, ov := range e.cat.Segs[st.ovr].overrides {
			if ov.PK == pk {
				return ov.claim(), true
			}
		}
		return pos{}, false
	}
	en, ok := t[pk]
	return en.claim(st.iv.Seg), ok
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
			out = append(out, span{from: cur, to: minI64(sp.from, to)})
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

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
