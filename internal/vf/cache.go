package vf

import (
	"container/list"
	"encoding/binary"
	"expvar"
	"sync/atomic"

	"decibel/internal/bitmap"
	"decibel/internal/record"
)

// Lineage/live-set cache. Version-first's read cost is dominated by
// resolution: every query walks the branch lineage and folds each
// interval's key table into a fresh live map, so a multi-branch scan
// over k branches re-derives k near-identical maps per request. The
// cache exploits the scheme's append-only physics: the resolution of a
// position (seg, slot) depends only on record slots below it, on
// parent links written once at segment creation, and on override
// tables fixed when a merge completes — all immutable — so an entry
// for an exact position stays valid for the life of the engine. A
// branch head's resolution is the entry at its current (seg, cut);
// each commit or append moves the cut to a fresh key, so head entries
// are never stale, merely superseded (the LRU reclaims them).
//
// Two invalidation exceptions, both handled by invalidateResolvedLocked:
//   - a merge fills the new head segment's override table after its
//     first (pre-override) resolution, so the merge drops entries
//     rooted at the segment it created;
//   - compaction replaces segment objects (slot numbering preserved,
//     so cached positions would stay readable) but drops entries rooted
//     at replaced segments anyway, keeping the cache's validity
//     argument independent of the re-encoder's internals.
//
// Resolution cost is amortized three ways:
//   - an exact-position hit returns the shared, read-only live map;
//   - a miss with a cached base lower in the same segment clones the
//     base and overlays the slot window between the two cuts, read with
//     one ascending scan (overlayWindowLocked);
//   - a cold miss pays the full lineage walk, with rawLineage results
//     memoized per position so chained merges resolve shared
//     sub-lineages (the LCA walks) once instead of once per merge
//     level.
//
// Point lookups (LookupPK) resolve no live set and so touch neither
// live-set tier: they probe the position's deduplicated step list —
// memoized per position beside the rawLineage memo — for one key.

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

// CacheCounters returns the cumulative lineage-cache counters:
// exact-position hits, misses, LRU evictions and resolutions served
// incrementally from a same-segment base.
func CacheCounters() (hits, misses, evictions, deltaResolves int64) {
	return vfCacheHits.Load(), vfCacheMisses.Load(), vfCacheEvictions.Load(), vfDeltaResolves.Load()
}

// cacheBudget bounds each cache tier by resident weight: for the
// live-set tier the total number of cached keys (the sum of live-map
// sizes), for the plan tier the total number of cached slots and
// membership entries — the quantities that actually occupy memory.
const cacheBudget = 1 << 18

// lru is a least-recently-used cache bounded by a resident-weight
// budget; both cache tiers are one. All access happens under the engine
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

// baseLocked returns the cached resolution in segment p.Seg with the
// highest slot not exceeding p.Slot — the cheapest base an incremental
// resolution of p can extend. Entry counts are bounded by the budget,
// and the scan costs little next to cloning the base it finds. Caller
// holds e.mu.
func (e *Engine) baseLocked(p pos) (pos, map[int64]pos, bool) {
	var best *lruEntry[pos, map[int64]pos]
	for q, el := range e.lcache.entries {
		if q.Seg == p.Seg && q.Slot <= p.Slot && (best == nil || q.Slot > best.key.Slot) {
			best = el.Value.(*lruEntry[pos, map[int64]pos])
		}
	}
	if best == nil {
		return pos{}, nil, false
	}
	return best.key, best.val, true
}

// overlayWindowLocked overlays the segment's slot window [from, to)
// onto live with one ascending scan: a later slot overwrites an earlier
// claim and a tombstone deletes, so within the window the newest copy
// of each key wins, and the window as a whole outranks everything
// already in live (newer slots of the same segment rank above all older
// claims). Caller holds e.mu.
func (e *Engine) overlayWindowLocked(live map[int64]pos, id segID, from, to int64) error {
	return e.segs[id].File.Scan(from, to, func(slot int64, buf []byte) bool {
		pk := record.PKOf(buf)
		if record.TombstoneOf(buf) {
			delete(live, pk)
		} else {
			live[pk] = pos{Seg: id, Slot: slot}
		}
		return true
	})
}

// Scan-plan cache: the second cache tier, above the live-set cache.
// Even with every resolution an exact-position hit, a scan still pays
// to regroup the live map by segment, sort each segment's slots, and —
// for multi-branch scans — rebuild the per-position membership bitmaps
// (k live maps folded into one union map) on every request. All of
// that is a pure function of the exact resolved positions, so the
// grouped, sorted, scan-ready form is cached under the position vector
// and a warm scan goes straight to pin + emit. Validity follows from
// the same immutability argument as the live-set cache; the whole tier
// is cleared by invalidateResolvedLocked (merge, compaction) since its
// entries can span many segments, and entries keyed by superseded cuts
// simply age out of the LRU.

// planGroup is one segment's share of a cached scan plan: the slots to
// emit, ascending. The slice is shared and read-only once cached.
type planGroup struct {
	id    segID
	slots []int64
}

// planEntry is one cached scan plan. groups is the only side for
// single-position and multi-branch scans; diffs carry side B in
// groupsB. member is the multi-branch membership map (position ->
// branch bitmap), shared and read-only once cached.
type planEntry struct {
	groups  []planGroup
	groupsB []planGroup
	member  map[pos]*bitmap.Bitmap
}

// planKey encodes a scan kind and its exact resolved positions. The
// vector keeps request order, so multi-branch membership bit indexes
// are part of the key and diff sides stay directional.
func planKey(kind byte, ps ...pos) string {
	b := make([]byte, 0, 1+len(ps)*12)
	b = append(b, kind)
	for _, p := range ps {
		b = binary.LittleEndian.AppendUint32(b, uint32(p.Seg))
		b = binary.LittleEndian.AppendUint64(b, uint64(p.Slot))
	}
	return string(b)
}

// planWeight is a plan's resident weight: its slots plus its
// membership entries.
func planWeight(en *planEntry) int {
	w := len(en.member)
	for _, g := range en.groups {
		w += len(g.slots)
	}
	for _, g := range en.groupsB {
		w += len(g.slots)
	}
	return w
}
