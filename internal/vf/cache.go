package vf

import (
	"container/list"
	"expvar"
	"fmt"

	"decibel/internal/bitmap"
	"decibel/internal/store"
)

// Scan-plan cache. Version-first's read cost is dominated by
// resolution: a version's live set is the first claim of every key over
// its lineage (the rule in lineage.go). A scan reads a resolved version
// as one slot bitmap per segment — the form hybrid stores, its scan
// plan — so the plans are what the cache keeps, one per exact position,
// bounded by the bitmap words they occupy. A scan of k versions
// combines k cached plans (see scan.go), so a commit on one of k
// branches resolves one position and reuses the other k-1 plans.
//
// Validity rests on the scheme's append-only physics: the resolution of
// a position (seg, slot) depends only on record slots below it, on
// parent links written once at segment creation, and on override tables
// fixed when a merge completes — all immutable — so a plan for an exact
// position stays valid for the life of the engine. A branch head's plan
// is the one at its current (seg, cut); each commit or append moves the
// cut to a fresh key, so head plans are never stale, merely superseded
// (the LRU reclaims them). Two invalidation exceptions, both handled by
// invalidateResolvedLocked:
//   - a merge fills the new head segment's override table after its
//     first (pre-override) resolution, so the merge drops the plans
//     rooted at the segment it created;
//   - compaction replaces segment objects (slot numbering preserved, so
//     cached positions would stay readable) but drops the plans rooted
//     at replaced segments anyway, keeping the cache's validity argument
//     independent of the re-encoder's internals.
//
// A miss derives the plan from a base plan when it can
// (derivePlanLocked). If lineage(p) is extra ++ lineage(base) for a
// few extra steps, then, first claims winning, p's plan is base's with
// every key the extra steps claim moved from its copy in base (the one
// of the key's copies in the version index that base holds) to its
// first claim among them. Three bases qualify:
//   - the highest cached cut of p's own segment, with the slot window
//     between the two cuts as the extra step;
//   - a plain branch point's parent position, resolved through the
//     cache (so it may itself be derived), below the segment's own
//     records and overrides;
//   - a merge segment's LCA position, only when its plan is already
//     cached, below the segment's own steps and the two parents'
//     post-LCA parts (mergeParts). Derivation never recurses through a
//     merge link: each level of a deep merge chain would scan both
//     parents' post-LCA parts, which nest, so a main branch heading the
//     chain would rescan its slots once per level.
//
// Anything else takes one pass over the version index
// (indexPlanLocked), whatever the lineage's depth. The lineage memos
// (lineage.go) keep a position's raw and deduplicated step lists, so
// chained merges resolve shared sub-lineages (the LCA walks) once
// instead of once per merge level. Point lookups (LookupPK) build no
// plan: they rank one key's copies by the step that holds them.

// Plan-cache counters: exact-position hits, misses, LRU evictions and
// misses served by deriving the plan from a base plan. The equivalence
// harness asserts hits move while the cache is enabled, so a silently
// bypassed cache cannot pass.
var (
	vfCacheHits      = expvar.NewInt("decibel.vf.lineage_cache_hits")
	vfCacheMisses    = expvar.NewInt("decibel.vf.lineage_cache_misses")
	vfCacheEvictions = expvar.NewInt("decibel.vf.lineage_cache_evictions")
	vfDeltaResolves  = expvar.NewInt("decibel.vf.delta_resolves")
)

// cacheBudget bounds the plan cache by resident weight: the total
// number of bitmap words its plans occupy.
const cacheBudget = 1 << 18

// lru is a least-recently-used cache bounded by a resident-weight
// budget; the plan cache is one. All access happens under the engine
// lock; the structure itself is not concurrency-safe.
type lru[K comparable, V any] struct {
	budget, resident int
	weight           func(V) int
	order            *list.List // of *lruEntry[K, V], front = most recently used
	entries          map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key    K
	val    V
	weight int
}

func newLRU[K comparable, V any](budget int, weight func(V) int) *lru[K, V] {
	return &lru[K, V]{budget: budget, weight: weight, order: list.New(), entries: make(map[K]*list.Element)}
}

// get returns the value cached under k and marks it most recently used.
func (c *lru[K, V]) get(k K) (V, bool) {
	el, ok := c.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// put caches v under k, evicting least-recently-used entries until the
// budget holds again; the entry just put is never evicted, and a value
// of weight zero counts as 1. The value becomes shared and must never
// be mutated afterwards.
func (c *lru[K, V]) put(k K, v V) {
	if el, ok := c.entries[k]; ok {
		c.remove(el)
	}
	en := &lruEntry[K, V]{key: k, val: v, weight: max(1, c.weight(v))}
	c.entries[k] = c.order.PushFront(en)
	c.resident += en.weight
	for c.resident > c.budget && c.order.Len() > 1 {
		vfCacheEvictions.Add(1)
		c.remove(c.order.Back())
	}
}

func (c *lru[K, V]) remove(el *list.Element) {
	en := c.order.Remove(el).(*lruEntry[K, V])
	delete(c.entries, en.key)
	c.resident -= en.weight
}

// drop removes every entry whose key matches.
func (c *lru[K, V]) drop(match func(K) bool) {
	for k, el := range c.entries {
		if match(k) {
			c.remove(el)
		}
	}
}

// planEntry is one position's scan plan: its live slots in each
// segment, indexed by segment id (nil: none live there), and the
// number of bitmap words they occupy, its cache weight.
type planEntry struct {
	segs  []*bitmap.Bitmap
	words int
}

// slots returns the plan's live-slot bitmap of the segment, nil when
// it has none there (or id is store.NoPos's).
func (en *planEntry) slots(id segID) *bitmap.Bitmap {
	if id >= 0 && int(id) < len(en.segs) {
		return en.segs[id]
	}
	return nil
}

// has says whether the plan holds the slot at p, false for store.NoPos.
func (en *planEntry) has(p pos) bool {
	bm := en.slots(p.Seg)
	return bm != nil && bm.Get(int(p.Slot))
}

// addSlot sets q's slot in a plan being built, sizing a segment's
// bitmap to the segment's slot count when it is first touched, so
// setting bits never regrows it. Caller holds e.mu.
func (e *Engine) addSlot(en *planEntry, q pos) {
	bm := en.segs[q.Seg]
	if bm == nil {
		bm = bitmap.New(int(e.cat.Segs[q.Seg].File.Count()))
		en.segs[q.Seg] = bm
		en.words += (bm.Len() + 63) / 64
	}
	bm.Set(int(q.Slot))
}

// indexPlanLocked builds the plan of p in one pass over the version
// index, applying the resolution rule to every key's copies: the copy
// in the first-ranked step of p's lineage wins, and within a step the
// first copy met (the index lists them newest first); an override step
// ranked earlier wins over both, and a tombstone claims absence. Bits
// are set as keys are decided, with no live map between. Caller holds
// e.mu.
func (e *Engine) indexPlanLocked(p pos) (*planEntry, error) {
	steps, err := e.lineageAt(p)
	if err != nil {
		return nil, err
	}
	// Each segment's interval steps, and each key's first override
	// claim, with the rank of the step that makes it.
	type ranked struct {
		from, to int64
		rank     int
	}
	type claim struct {
		at   pos
		rank int
	}
	spans := make([][]ranked, len(e.cat.Segs))
	ovrs := make(map[int64]claim)
	for i, st := range steps {
		if !st.isOvr {
			spans[st.iv.Seg] = append(spans[st.iv.Seg], ranked{st.iv.From, st.iv.To, i})
			continue
		}
		for _, ov := range e.cat.Segs[st.ovr].overrides {
			if _, ok := ovrs[ov.PK]; !ok {
				ovrs[ov.PK] = claim{ov.claim(), i}
			}
		}
	}
	en := &planEntry{segs: make([]*bitmap.Bitmap, len(e.cat.Segs))}
	e.vers.Each(func(pk int64, copies []pos) {
		best := claim{store.NoPos, len(steps)}
		if c, ok := ovrs[pk]; ok {
			best = c
		}
		for _, q := range copies {
			for _, sp := range spans[q.Seg] {
				if sp.rank < best.rank && sp.from <= q.Slot && q.Slot < sp.to {
					best = claim{q, sp.rank}
				}
			}
		}
		if best.at != store.NoPos && !e.isDead(best.at) {
			e.addSlot(en, best.at)
		}
	})
	return en, nil
}

// baseKind is the kind of base a plan was derived from (see the rule at
// the top of this file).
type baseKind int

const (
	baseCut    baseKind = iota // a cached cut of the same segment
	baseBranch                 // a plain branch point's parent
	baseMerge                  // a merge's LCA
	baseKinds
)

// derivePlanLocked derives p's plan from a base plan, nil when no base
// qualifies. p's segment exists. Caller holds e.mu.
func (e *Engine) derivePlanLocked(p pos) (*planEntry, error) {
	s := e.cat.Segs[p.Seg]
	var (
		kind   baseKind
		claims map[int64]pos
		err    error
	)
	at, base := e.cachedCutLocked(p)
	switch {
	case base != nil:
		kind = baseCut
		claims, err = e.firstClaimsLocked([]step{{iv: interval{Seg: p.Seg, From: at.Slot, To: p.Slot}}})
	case !s.hasLink:
		return nil, nil
	case !s.link.IsMerge:
		kind, at = baseBranch, pos{Seg: s.link.ParentSeg, Slot: s.link.ParentSlot}
		if base, err = e.planLocked(at); err == nil {
			claims, err = e.firstClaimsLocked(e.ownSteps(p))
		}
	default:
		lca, ok := e.commits[s.link.LCACommit]
		if !ok {
			return nil, fmt.Errorf("vf: merge LCA commit %d has no recorded offset", s.link.LCACommit)
		}
		if base, ok = e.pcache.get(lca); !ok {
			return nil, nil
		}
		kind, at = baseMerge, lca
		var parts []step
		if parts, _, err = e.mergeParts(s.link); err == nil {
			claims, err = e.firstClaimsLocked(append(e.ownSteps(p), parts...))
		}
	}
	if err != nil {
		return nil, err
	}
	e.derived[kind]++
	return e.rebaseLocked(base, claims), nil
}

// cachedCutLocked returns the cached plan of p's segment with the
// highest slot not exceeding p's, nil when there is none. The scan is
// bounded by the cache's entry count and costs little next to the
// derivation it saves. Caller holds e.mu.
func (e *Engine) cachedCutLocked(p pos) (pos, *planEntry) {
	var best *lruEntry[pos, *planEntry]
	for q, el := range e.pcache.entries {
		if q.Seg == p.Seg && q.Slot <= p.Slot && (best == nil || q.Slot > best.key.Slot) {
			best = el.Value.(*lruEntry[pos, *planEntry])
		}
	}
	if best == nil {
		return pos{}, nil
	}
	e.pcache.order.MoveToFront(e.pcache.entries[best.key])
	return best.key, best.val
}

// rebaseLocked returns base with every key of claims moved from its
// copy in base — the one the version index lists that base holds — to
// the claim given: the plan of a position whose lineage ranks the steps
// that make claims above base's. Touched bitmaps are copied on write,
// sized to their segment's slot count, and dropped when left empty, so
// an empty bitmap never becomes a slot space. Caller holds e.mu.
func (e *Engine) rebaseLocked(base *planEntry, claims map[int64]pos) *planEntry {
	en := &planEntry{segs: make([]*bitmap.Bitmap, len(e.cat.Segs))}
	copy(en.segs, base.segs)
	owned := make([]bool, len(en.segs))
	own := func(id segID) *bitmap.Bitmap {
		if !owned[id] {
			owned[id] = true
			bm := bitmap.New(int(e.cat.Segs[id].File.Count()))
			if old := en.segs[id]; old != nil {
				bm.Or(old)
			}
			en.segs[id] = bm
		}
		return en.segs[id]
	}
	for pk, to := range claims {
		from := e.vers.Find(pk, base.has)
		if from == to {
			continue
		}
		if from != store.NoPos {
			own(from.Seg).Clear(int(from.Slot))
		}
		if to != store.NoPos {
			own(to.Seg).Set(int(to.Slot))
		}
	}
	for id, bm := range en.segs {
		if owned[id] && !bm.Any() {
			en.segs[id] = nil
		} else if bm != nil {
			en.words += (bm.Len() + 63) / 64
		}
	}
	return en
}
