package vf

import (
	"container/list"
	"expvar"
	"fmt"
	"sync/atomic"

	"decibel/internal/bitmap"
	"decibel/internal/record"
	"decibel/internal/store"
)

// Scan-plan cache. Version-first's read cost is dominated by
// resolution: a version's live set is the first claim of every key over
// its lineage, and a full walk folds every step's key table into a
// pk -> position map. A scan reads a resolved version as one slot
// bitmap per segment — the form hybrid stores, its scan plan — so the
// plans are what the cache keeps, one per exact position, bounded by
// the bitmap words they occupy. A scan of k versions combines k cached
// plans (see scan.go), so a commit on one of k branches resolves one
// position and reuses the other k-1 plans.
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
// every key the extra steps claim moved from its claim in base to its
// first claim among them. Three bases qualify:
//   - the highest cached cut of p's own segment, with the slot window
//     between the two cuts as the extra step;
//   - a plain branch point's parent position, resolved through the
//     cache (so it may itself be derived), below the segment's own
//     records and overrides;
//   - a merge segment's LCA position, only when its plan is already
//     cached, below the segment's own steps and the two parents'
//     post-LCA parts (mergeParts). Derivation never recurses through a
//     merge link: a key's claim in the base is probed step by step, and
//     a main branch heading a deep merge chain would pay that chain's
//     depth per key at every level.
//
// Anything else pays the full walk (resolveLiveFull), its map only
// transient. The lineage memos (lineage.go) keep a position's raw and
// deduplicated step lists, so chained merges resolve shared
// sub-lineages (the LCA walks) once instead of once per merge level.
// Point lookups (LookupPK) build no plan: they probe the position's
// deduplicated step list for one key.

// Cache counters (expvar decibel.vf.*). The equivalence harness
// asserts hits move while the cache is enabled, so a silently bypassed
// cache cannot pass.
var (
	vfCacheHits      atomic.Int64
	vfCacheMisses    atomic.Int64
	vfCacheEvictions atomic.Int64
	vfDeltaResolves  atomic.Int64
)

func init() {
	expvar.Publish("decibel.vf.lineage_cache_hits", expvar.Func(func() any { return vfCacheHits.Load() }))
	expvar.Publish("decibel.vf.lineage_cache_misses", expvar.Func(func() any { return vfCacheMisses.Load() }))
	expvar.Publish("decibel.vf.lineage_cache_evictions", expvar.Func(func() any { return vfCacheEvictions.Load() }))
	expvar.Publish("decibel.vf.delta_resolves", expvar.Func(func() any { return vfDeltaResolves.Load() }))
}

// CacheCounters returns the cumulative plan-cache counters:
// exact-position hits, misses, LRU evictions and misses served by
// deriving the plan from a base plan.
func CacheCounters() (hits, misses, evictions, deltaResolves int64) {
	return vfCacheHits.Load(), vfCacheMisses.Load(), vfCacheEvictions.Load(), vfDeltaResolves.Load()
}

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

// newPlan builds the scan plan of a resolved live set in one pass, each
// segment's bitmap sized to the segment's slot count so setting bits
// never regrows it. Caller holds e.mu.
func (e *Engine) newPlan(live map[int64]pos) *planEntry {
	en := &planEntry{segs: make([]*bitmap.Bitmap, len(e.cat.Segs))}
	for _, q := range live {
		bm := en.segs[q.Seg]
		if bm == nil {
			bm = bitmap.New(int(e.cat.Segs[q.Seg].File.Count()))
			en.segs[q.Seg] = bm
			en.words += (bm.Len() + 63) / 64
		}
		bm.Set(int(q.Slot))
	}
	return en
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
		claims, err = e.windowClaimsLocked(p.Seg, at.Slot, p.Slot)
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
	en, err := e.rebaseLocked(at, base, claims)
	if err != nil {
		return nil, err
	}
	e.derived[kind]++
	return en, nil
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

// windowClaimsLocked maps every key of the segment's slot window [from,
// to) to its newest copy there, store.NoPos for a tombstone, with one
// ascending scan. Caller holds e.mu.
func (e *Engine) windowClaimsLocked(id segID, from, to int64) (map[int64]pos, error) {
	claims := make(map[int64]pos)
	err := e.cat.Segs[id].File.Scan(from, to, func(slot int64, buf []byte) bool {
		claims[record.PKOf(buf)] = tableEntry{Slot: slot, Tombstone: record.TombstoneOf(buf)}.claim(id)
		return true
	})
	return claims, err
}

// rebaseLocked returns base, the plan of at, with every key of claims
// moved from its claim at at to the claim given: the plan of a position
// whose lineage ranks the steps that make claims above at's. Touched
// bitmaps are copied on write, sized to their segment's slot count, and
// dropped when left empty, so an empty bitmap never becomes a slot
// space. Caller holds e.mu.
func (e *Engine) rebaseLocked(at pos, base *planEntry, claims map[int64]pos) (*planEntry, error) {
	lineage, err := e.lineageAt(at)
	if err != nil {
		return nil, err
	}
	tables, err := e.tablesLocked(lineage)
	if err != nil {
		return nil, err
	}
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
		from := store.NoPos
		for i, st := range lineage {
			if q, ok := e.stepClaim(st, tables[i], pk); ok {
				from = q
				break
			}
		}
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
	return en, nil
}
