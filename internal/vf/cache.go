package vf

import (
	"encoding/binary"
	"expvar"
	"sync/atomic"

	"decibel/internal/bitmap"
	"decibel/internal/core"
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
//     base and applies only the slot window between the two cuts — the
//     per-commit RLE delta log (below) reads just the claiming slots;
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

// DefaultCacheBudget is the default bound on the live-set cache:
// the total number of resident keys (the sum of live-map sizes across
// entries), the quantity that actually occupies memory.
const DefaultCacheBudget = 1 << 18

// resolveCacheBudget picks the cache bound: a positive
// Options.VFLineageCache is the budget, a negative one disables the
// cache, zero takes DefaultCacheBudget.
func resolveCacheBudget(opt core.Options) int {
	n := opt.VFLineageCache
	if n < 0 {
		return 0
	}
	if n == 0 {
		return DefaultCacheBudget
	}
	return n
}

// liveEntry is one cached resolution: the shared, read-only live map
// of an exact position, on an LRU list.
type liveEntry struct {
	pos        pos
	live       map[int64]pos
	prev, next *liveEntry
}

// liveCache is the bounded position-keyed live-set cache. All access
// happens under the engine lock; the structure itself is not
// concurrency-safe.
type liveCache struct {
	budget   int // max resident keys; entries weigh max(1, len(live))
	resident int
	entries  map[pos]*liveEntry
	// newest tracks the highest-slot entry per segment: the preferred
	// base for incremental resolution of later cuts of the same head.
	newest map[segID]*liveEntry
	head   *liveEntry // most recently used
	tail   *liveEntry // least recently used
}

func newLiveCache(budget int) *liveCache {
	if budget <= 0 {
		return nil
	}
	return &liveCache{
		budget:  budget,
		entries: make(map[pos]*liveEntry),
		newest:  make(map[segID]*liveEntry),
	}
}

func entryWeight(en *liveEntry) int {
	if n := len(en.live); n > 0 {
		return n
	}
	return 1
}

func (c *liveCache) unlink(en *liveEntry) {
	if en.prev != nil {
		en.prev.next = en.next
	} else {
		c.head = en.next
	}
	if en.next != nil {
		en.next.prev = en.prev
	} else {
		c.tail = en.prev
	}
	en.prev, en.next = nil, nil
}

func (c *liveCache) pushFront(en *liveEntry) {
	en.next = c.head
	if c.head != nil {
		c.head.prev = en
	}
	c.head = en
	if c.tail == nil {
		c.tail = en
	}
}

// get returns the live map cached for the exact position, or nil.
func (c *liveCache) get(p pos) map[int64]pos {
	en, ok := c.entries[p]
	if !ok {
		return nil
	}
	c.unlink(en)
	c.pushFront(en)
	return en.live
}

// base returns the cached entry for the same segment with the highest
// slot not exceeding maxSlot — the cheapest base an incremental
// resolution can extend — or nil.
func (c *liveCache) base(seg segID, maxSlot int64) *liveEntry {
	if en := c.newest[seg]; en != nil && en.pos.Slot <= maxSlot {
		return en
	}
	// The newest entry overshoots (a historical read below existing
	// entries): scan for the best lower one. Entry counts are bounded
	// by the budget, so this stays cheap and rare.
	var best *liveEntry
	for _, en := range c.entries {
		if en.pos.Seg == seg && en.pos.Slot <= maxSlot &&
			(best == nil || en.pos.Slot > best.pos.Slot) {
			best = en
		}
	}
	return best
}

// put inserts a resolution, evicting least-recently-used entries until
// the resident-key budget holds. The map becomes shared and must never
// be mutated afterwards.
func (c *liveCache) put(p pos, live map[int64]pos) {
	if old, ok := c.entries[p]; ok {
		c.remove(old)
	}
	en := &liveEntry{pos: p, live: live}
	c.entries[p] = en
	c.pushFront(en)
	c.resident += entryWeight(en)
	if cur := c.newest[p.Seg]; cur == nil || p.Slot >= cur.pos.Slot {
		c.newest[p.Seg] = en
	}
	for c.resident > c.budget && c.tail != nil && c.tail != en {
		vfCacheEvictions.Add(1)
		c.remove(c.tail)
	}
}

// remove drops an entry and fixes the newest index.
func (c *liveCache) remove(en *liveEntry) {
	delete(c.entries, en.pos)
	c.unlink(en)
	c.resident -= entryWeight(en)
	if c.newest[en.pos.Seg] == en {
		delete(c.newest, en.pos.Seg)
		for _, other := range c.entries {
			if other.pos.Seg == en.pos.Seg {
				if cur := c.newest[en.pos.Seg]; cur == nil || other.pos.Slot > cur.pos.Slot {
					c.newest[en.pos.Seg] = other
				}
			}
		}
	}
}

// invalidateSeg drops every entry rooted at the segment.
func (c *liveCache) invalidateSeg(id segID) {
	for p, en := range c.entries {
		if p.Seg == id {
			c.remove(en)
		}
	}
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
	key        string
	groups     []planGroup
	groupsB    []planGroup
	member     map[pos]*bitmap.Bitmap
	weight     int
	prev, next *planEntry
}

// planCache is the bounded scan-plan cache, LRU over a resident-slot
// budget. All access happens under the engine lock.
type planCache struct {
	budget   int
	resident int
	entries  map[string]*planEntry
	head     *planEntry
	tail     *planEntry
}

func newPlanCache(budget int) *planCache {
	if budget <= 0 {
		return nil
	}
	return &planCache{budget: budget, entries: make(map[string]*planEntry)}
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

func planWeight(en *planEntry) int {
	w := len(en.member)
	for _, g := range en.groups {
		w += len(g.slots)
	}
	for _, g := range en.groupsB {
		w += len(g.slots)
	}
	if w == 0 {
		return 1
	}
	return w
}

func (c *planCache) unlink(en *planEntry) {
	if en.prev != nil {
		en.prev.next = en.next
	} else {
		c.head = en.next
	}
	if en.next != nil {
		en.next.prev = en.prev
	} else {
		c.tail = en.prev
	}
	en.prev, en.next = nil, nil
}

func (c *planCache) pushFront(en *planEntry) {
	en.next = c.head
	if c.head != nil {
		c.head.prev = en
	}
	c.head = en
	if c.tail == nil {
		c.tail = en
	}
}

// get returns the cached plan for the key, or nil.
func (c *planCache) get(key string) *planEntry {
	en, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.unlink(en)
	c.pushFront(en)
	return en
}

// put inserts a plan, evicting least-recently-used entries until the
// budget holds. The entry's slices and maps become shared and must
// never be mutated afterwards.
func (c *planCache) put(en *planEntry) {
	if old, ok := c.entries[en.key]; ok {
		c.remove(old)
	}
	en.weight = planWeight(en)
	c.entries[en.key] = en
	c.pushFront(en)
	c.resident += en.weight
	for c.resident > c.budget && c.tail != nil && c.tail != en {
		vfCacheEvictions.Add(1)
		c.remove(c.tail)
	}
}

func (c *planCache) remove(en *planEntry) {
	delete(c.entries, en.key)
	c.unlink(en)
	c.resident -= en.weight
}

// clear drops every cached plan.
func (c *planCache) clear() {
	if len(c.entries) == 0 {
		return
	}
	c.entries = make(map[string]*planEntry)
	c.head, c.tail = nil, nil
	c.resident = 0
}

// segDelta is one commit's live-set delta on a head segment: the RLE
// bitmap (internal/bitmap) over the slot window [From, To) marking the
// slots that are the newest copy of their key within the window — the
// claims the window contributes to any resolution above it. Shadowed
// copies (a key updated twice in one commit) carry no bit, and
// tombstone slots are marked like claims (they claim the key as dead).
type segDelta struct {
	From, To int64
	RLE      []byte
}

// maxDeltasPerSeg bounds the in-memory delta log of one segment. A
// base older than the retained window falls back to a plain slot scan
// of the gap, so the bound trades memory for the incremental window
// depth, not correctness.
const maxDeltasPerSeg = 128

// recordDeltaLocked appends the RLE delta of the head segment's
// newly committed window [deltaTail, cut) to its delta log. Caller
// holds e.mu.
func (e *Engine) recordDeltaLocked(id segID, cut int64) error {
	from := e.deltaTail[id]
	if cut <= from {
		return nil
	}
	e.deltaTail[id] = cut
	t, err := e.table(interval{Seg: id, From: from, To: cut})
	if err != nil {
		return err
	}
	bm := bitmap.New(int(cut - from))
	for _, en := range t {
		bm.Set(int(en.Slot - from))
	}
	log := append(e.deltas[id], segDelta{From: from, To: cut, RLE: bitmap.MarshalRLE(bm)})
	if len(log) > maxDeltasPerSeg {
		log = log[len(log)-maxDeltasPerSeg:]
	}
	e.deltas[id] = log
	return nil
}

// applyWindowLocked overlays the segment's slot window [from, to) onto
// live: within the window the newest copy of each key wins, and the
// window as a whole outranks everything already in live (newer slots
// of the same segment rank above all older claims). Recorded commit
// deltas that tile the window are applied by reading only their marked
// slots; gaps (uncommitted tails, or windows older than the retained
// delta log) fall back to the interval's key table. Caller holds e.mu.
func (e *Engine) applyWindowLocked(live map[int64]pos, id segID, from, to int64) error {
	deltas := e.deltas[id]
	// Skip deltas entirely below the window.
	i := 0
	for i < len(deltas) && deltas[i].To <= from {
		i++
	}
	cur := from
	for cur < to {
		if i < len(deltas) && deltas[i].From == cur && deltas[i].To <= to {
			if err := e.applyDeltaLocked(live, id, deltas[i]); err != nil {
				return err
			}
			cur = deltas[i].To
			i++
			continue
		}
		// Gap: apply via the interval table (cached when the same gap
		// recurs, e.g. the uncommitted tail between two scans).
		gapEnd := to
		if i < len(deltas) && deltas[i].From > cur && deltas[i].From < to {
			gapEnd = deltas[i].From
		}
		t, err := e.table(interval{Seg: id, From: cur, To: gapEnd})
		if err != nil {
			return err
		}
		for pk, en := range t {
			if en.Tombstone {
				delete(live, pk)
			} else {
				live[pk] = pos{Seg: id, Slot: en.Slot}
			}
		}
		cur = gapEnd
	}
	return nil
}

// applyDeltaLocked decodes one RLE commit delta and applies the
// records at its marked slots, reading each contiguous marked run with
// one page-run scan. Caller holds e.mu.
func (e *Engine) applyDeltaLocked(live map[int64]pos, id segID, d segDelta) error {
	bm, _, err := bitmap.DecodeRLE(d.RLE)
	if err != nil {
		return err
	}
	s := e.segs[id]
	n := int(d.To - d.From)
	for i := 0; i < n; {
		if !bm.Get(i) {
			i++
			continue
		}
		j := i + 1
		for j < n && bm.Get(j) {
			j++
		}
		err := s.File.Scan(d.From+int64(i), d.From+int64(j), func(slot int64, buf []byte) bool {
			pk := record.PKOf(buf)
			if record.TombstoneOf(buf) {
				delete(live, pk)
			} else {
				live[pk] = pos{Seg: id, Slot: slot}
			}
			return true
		})
		if err != nil {
			return err
		}
		i = j
	}
	return nil
}
