package store

// Pos addresses one stored copy of a record: a slot of a segment.
// Tuple-first numbers its whole heap with global slots and leaves Seg
// zero; hybrid and version-first use their segment ids. The JSON names
// are those of version-first's catalog, which stores positions.
type Pos struct {
	Seg  int32 `json:"seg"`
	Slot int64 `json:"slot"`
}

// NoPos is the position of a key a version holds no copy of.
var NoPos = Pos{Seg: -1, Slot: -1}

// VersionIndex is the primary-key index of a table, shared by every
// branch: for each key, the positions of its stored versions, newest
// first. It does not know branches; the liveness each engine already
// keeps decides which version a branch sees, so only a newly appended
// slot is pushed. Tuple-first and hybrid keep liveness bitmaps, where a
// branch holds at most one version of a key, so a lookup (Find) is one
// map probe plus a walk that stops at the first position live in the
// branch, and setting or clearing a bit is the index update for
// updates, deletes, merges and branching. Version-first ranks a key's
// positions by the lineage step that holds them (the first-ranked step
// wins, within a step the first position met); its tombstones are
// positions too, which Catalog.Versions reports.
//
// A lookup is O(versions of that key): a branch that holds the newest
// version resolves from the map entry alone, a branch still on an old
// version walks past the newer ones, a key absent from the branch walks
// them all. No engine drops a slot, so the lists only grow.
//
// Invariant: a position is never reused while the process lives — heap
// files truncate only at open, and segment ids are never reused (in
// hybrid datasets compacted before merge compaction was removed, a
// merged segment holds a fresh id and its run's ids stay retired) — so
// a position no version holds may stay in the index harmlessly: no
// liveness test will ever accept it for a different record.
//
// Not safe for concurrent use; every engine reaches it under its lock.
type VersionIndex struct {
	newest map[int64]version // pk -> its newest version
	older  []version         // superseded versions, chained newest to oldest
}

// version is one position, 16 bytes, and the index in older of the
// next older version of the same key (-1 ends the list).
type version struct {
	slot int64
	seg  int32
	next int32
}

func (v version) pos() Pos { return Pos{Seg: v.seg, Slot: v.slot} }

// NewVersionIndex returns an empty index sized for up to n keys.
func NewVersionIndex(n int) *VersionIndex {
	return &VersionIndex{newest: make(map[int64]version, n)}
}

// Push records p as the newest stored version of pk.
func (ix *VersionIndex) Push(pk int64, p Pos) {
	next := int32(-1)
	if prev, ok := ix.newest[pk]; ok {
		next = int32(len(ix.older))
		ix.older = append(ix.older, prev)
	}
	ix.newest[pk] = version{slot: p.Slot, seg: p.Seg, next: next}
}

// after returns the next older version of v's key.
func (ix *VersionIndex) after(v version) (version, bool) {
	if v.next < 0 {
		return version{}, false
	}
	return ix.older[v.next], true
}

// Find walks pk's versions newest first and returns the first one live
// accepts, NoPos when it accepts none. live must not modify the index.
func (ix *VersionIndex) Find(pk int64, live func(Pos) bool) Pos {
	for v, ok := ix.newest[pk]; ok; v, ok = ix.after(v) {
		if live(v.pos()) {
			return v.pos()
		}
	}
	return NoPos
}

// Each calls fn once per key with the key's positions, newest first:
// every position pushed is visited exactly once. ps is reused between
// calls. fn must not modify the index.
func (ix *VersionIndex) Each(fn func(pk int64, ps []Pos)) {
	var ps []Pos
	for pk, v := range ix.newest {
		ps = append(ps[:0], v.pos())
		for v, ok := ix.after(v); ok; v, ok = ix.after(v) {
			ps = append(ps, v.pos())
		}
		fn(pk, ps)
	}
}

// Len returns the number of positions held.
func (ix *VersionIndex) Len() int { return len(ix.newest) + len(ix.older) }

// Bytes approximates the index's memory footprint: a key and a version
// per distinct key, a version per superseded one.
func (ix *VersionIndex) Bytes() int64 {
	return int64(len(ix.newest))*24 + int64(len(ix.older))*16
}
