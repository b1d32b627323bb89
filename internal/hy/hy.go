// Package hy implements Decibel's two bitmap schemes, tuple-first
// (Section 3.2) and hybrid (Section 3.4), as one engine with two
// placements. Records live in segment files of the shared store; which
// records each branch holds is a bitmap per (branch, slot space), and
// per-branch commit history files store RLE-compressed XOR deltas of
// those bitmaps. The schemes differ only in where an insert lands:
//
//   - Tuple-first: every branch appends to the tail of one chain of
//     extents, which rotates only when the schema widens. The chain is
//     one slot space (id 0), each extent at its Base, so a branch's one
//     bitmap over it is the branch-oriented bitmap index of Section 3.1.
//   - Hybrid: every branch appends to its own head segment, and a branch
//     operation freezes the parent's head. Each segment is its own slot
//     space, so a branch's bitmaps are the paper's per-(segment, branch)
//     local bitmaps, and the segments it has one in are its row of the
//     global branch-segment bitmap, which lets scans skip segments.
package hy

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"decibel/internal/bitmap"
	"decibel/internal/core"
	"decibel/internal/record"
	"decibel/internal/store"
	"decibel/internal/vgraph"
)

// segID indexes the engine's segment table, and names a slot space
// (store.Pos.Seg): a hybrid segment's own id, its position in the
// table; 0 for tuple-first's chain.
type segID = int32

// pos addresses one record copy.
type pos = store.Pos

// hseg is one segment: its catalog entry (data file, schema-version id,
// zone map, freeze state, base slot in the chain) and, in hybrid, the
// branch whose head it is or was.
type hseg struct {
	store.Entry
	owner vgraph.BranchID
}

// logKey identifies a commit history file: one per (branch, slot
// space) — one per branch in tuple-first, whose chain is one space, and
// one per (branch, segment) in hybrid: "in hybrid, each (branch,
// segment) has its own file" (Section 5.3).
type logKey struct {
	Branch vgraph.BranchID
	Seg    segID
}

// hlog is one commit history file and the branch commit seq of its
// first entry, which its name carries.
type hlog struct {
	*bitmap.CommitLog
	start int
}

// Engine is the tuple-first and the hybrid storage engine.
type Engine struct {
	mu   sync.Mutex
	env  *core.Env
	hist *record.History
	st   *store.Store

	// chained is tuple-first's placement: one shared chain of extents,
	// slot space 0, whose tail takes every branch's writes. Otherwise
	// (hybrid) each segment is a slot space and each branch writes to
	// its head segment. It selects the segment a write goes to and
	// whether a branch operation freezes the parent's head.
	chained bool

	// cat is the segment table in scan order (the order every scan
	// shape visits segments). A segment's id is its position in it, so
	// the id a hybrid position, log or catalog entry names indexes it.
	cat     *store.Catalog[*hseg]
	headSeg map[vgraph.BranchID]segID // hybrid only
	// live is the bitmap index: each branch's live slots by slot space.
	// Every branch the engine knows has an entry, possibly empty.
	live map[vgraph.BranchID]map[segID]*bitmap.Bitmap
	// vers is the table's primary-key index: every stored position, by
	// key, newest first. One index serves all branches; e.live says
	// which version a branch sees. Segments are only ever appended to
	// the table, so a position can never come to name a different record.
	vers *store.VersionIndex

	logs map[logKey]*hlog
}

// segMetaJSON is one entry of segments.json: the shared store state
// (cols, frozen flag, zone map), the segment's id and owner and, once
// it is frozen, its row count. Segment i is listed at position i.
type segMetaJSON struct {
	store.SegMeta
	ID    segID           `json:"id"`
	Owner vgraph.BranchID `json:"owner"`
	Count int64           `json:"count,omitempty"`
}

type metaJSON struct {
	Segments []segMetaJSON             `json:"segments"`
	HeadSeg  map[vgraph.BranchID]segID `json:"headSeg,omitempty"`
}

// Factory builds a hybrid engine; it satisfies core.Factory.
func Factory(env *core.Env) (core.Engine, error) { return open(env, false) }

// TupleFirstFactory builds a tuple-first engine; it satisfies
// core.Factory.
func TupleFirstFactory(env *core.Env) (core.Engine, error) { return open(env, true) }

func open(env *core.Env, chained bool) (core.Engine, error) {
	e := &Engine{
		env:     env,
		hist:    env.History(),
		st:      store.New(env.Pool, env.History()),
		chained: chained,
		headSeg: make(map[vgraph.BranchID]segID),
		live:    make(map[vgraph.BranchID]map[segID]*bitmap.Bitmap),
		logs:    make(map[logKey]*hlog),
	}
	e.cat = store.NewCatalog[*hseg](e.st, env.Dir, env.Opt.Fsync, env.Opt.CompactionFailPoint, chained, e.catalog)
	err := e.recover()
	if err == nil {
		e.vers, err = e.cat.Versions(nil)
	}
	if err != nil {
		// Release everything the failed open has opened so far.
		e.cat.Close(false)
		for _, l := range e.logs {
			l.Close()
		}
		return nil, err
	}
	return e, nil
}

// Kind implements core.Engine.
func (e *Engine) Kind() string {
	if e.chained {
		return "tuple-first"
	}
	return "hybrid"
}

func (e *Engine) errorf(format string, a ...any) error {
	return fmt.Errorf("%s: %w", e.Kind(), fmt.Errorf(format, a...))
}

// logName names the commit log of k whose first entry is the branch's
// commit start.
func logName(k logKey, start int) string {
	return fmt.Sprintf("b%d_s%d_%d.hist", k.Branch, k.Seg, start)
}

// openLog opens (creating it when new) k's commit log whose first entry
// is the branch's commit start.
func (e *Engine) openLog(k logKey, start int) (*hlog, error) {
	cl, err := bitmap.OpenCommitLog(filepath.Join(e.env.Dir, "commits", logName(k, start)), bitmap.DefaultLayerFanout)
	if err != nil {
		return nil, err
	}
	l := &hlog{CommitLog: cl, start: start}
	e.logs[k] = l
	return l, nil
}

// catalog is the catalog as segments.json holds it.
func (e *Engine) catalog() any {
	m := metaJSON{HeadSeg: e.headSeg}
	for _, s := range e.cat.Segs {
		sm := segMetaJSON{SegMeta: s.Meta(), ID: s.ID, Owner: s.owner}
		if s.Frozen {
			sm.Count = s.File.Count()
		}
		m.Segments = append(m.Segments, sm)
	}
	return &m
}

// load reads the catalog file and opens every segment it lists; a table
// the engine has not saved yet has none (Init adds the first). A frozen
// segment keeps the row count its entry records — no slot after it
// builds on more, in tuple-first's chain or a frozen hybrid segment —
// and a file holding fewer rows fails the open. An open segment keeps
// every row: the bitmaps say which are live.
func (e *Engine) load() error {
	var m metaJSON
	if err := e.cat.Load(&m); err != nil {
		return e.errorf("%w", err)
	}
	// The catalog's Open refuses an id listed at another position.
	for _, sm := range m.Segments {
		e.cat.Segs = append(e.cat.Segs, &hseg{Entry: store.Entry{ID: sm.ID}, owner: sm.Owner})
	}
	err := e.cat.Open(func(i int) (store.SegMeta, int64) {
		sm := m.Segments[i]
		if sm.Frozen {
			return sm.SegMeta, sm.Count
		}
		return sm.SegMeta, -1
	})
	if err != nil {
		return e.errorf("%w", err)
	}
	if m.HeadSeg != nil {
		e.headSeg = m.HeadSeg
	}
	return nil
}

// recover reloads the catalog and restores each branch's bitmaps to
// their last committed snapshot (uncommitted modifications are rolled
// back, per Section 2.2.3). What is committed is the version graph's
// call — its log record is written after the engines' — so each commit
// log in commits/ is reconciled with the graph's count for its branch:
// a log whose first commit the graph does not hold is removed, and
// every other drops its entries past the count.
func (e *Engine) recover() error {
	if err := e.load(); err != nil || len(e.cat.Segs) == 0 {
		return err
	}
	dir := filepath.Join(e.env.Dir, "commits")
	ents, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return e.errorf("%w", err)
	}
	for _, ent := range ents {
		var k logKey
		var start int
		name := ent.Name()
		if _, err := fmt.Sscanf(name, "b%d_s%d_%d.hist", &k.Branch, &k.Seg, &start); err != nil || logName(k, start) != name {
			return e.errorf("commits/%s is not a commit log name", name)
		}
		// Only an init the graph never recorded leaves logs of a branch
		// the graph does not hold, removed below with the other logs
		// such a commit began.
		if _, ok := e.env.Graph.Branch(k.Branch); !ok && e.env.Graph.Initialized() {
			return e.errorf("commit log %s names branch %d, which the version graph does not hold", name, k.Branch)
		}
		if k.Seg < 0 || int(k.Seg) >= len(e.cat.Segs) || e.chained && k.Seg != 0 {
			return e.errorf("corrupt dataset: commit log %s names slot space %d, which the table does not have", name, k.Seg)
		}
		if _, dup := e.logs[k]; dup {
			return e.errorf("corrupt dataset: two commit logs of branch %d in segment %d", k.Branch, k.Seg)
		}
		n := e.env.Graph.NumCommitsOn(k.Branch)
		if start >= n {
			// Begun by a commit the graph never recorded.
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return e.errorf("%w", err)
			}
			continue
		}
		l, err := e.openLog(k, start)
		if err != nil {
			return err
		}
		if err := core.ReconcileLog(l.CommitLog, k.Branch, n-start); err != nil {
			return e.errorf("%w (%s)", err, name)
		}
		e.branchLive(k.Branch)[k.Seg] = l.Head()
	}
	// Branches never committed to have no logs of their own: they are
	// created again, at their branch point.
	for _, br := range e.env.Graph.Branches() {
		if e.live[br.ID] != nil {
			continue
		}
		if br.From == vgraph.None {
			e.branchLive(br.ID)
			continue
		}
		from, err := e.env.BranchPoint(br)
		if err != nil {
			return e.errorf("%w", err)
		}
		if err := e.branchLocked(br.ID, from); err != nil {
			return err
		}
	}
	return nil
}

// branchLive returns the branch's bitmaps by slot space, registering
// the branch when the engine does not know it yet.
func (e *Engine) branchLive(b vgraph.BranchID) map[segID]*bitmap.Bitmap {
	m := e.live[b]
	if m == nil {
		m = make(map[segID]*bitmap.Bitmap)
		e.live[b] = m
	}
	return m
}

// bitmapIn returns a branch's bitmap in slot space id, creating it
// empty when the branch has none there yet — in hybrid, when it first
// sees the segment.
func bitmapIn(live map[segID]*bitmap.Bitmap, id segID) *bitmap.Bitmap {
	bm := live[id]
	if bm == nil {
		bm = bitmap.New(0)
		live[id] = bm
	}
	return bm
}

// at returns the position of slot of segment s: in its own slot space
// in hybrid, in the chain's space 0 at s's base in tuple-first.
func (e *Engine) at(s *hseg, slot int64) pos {
	if e.chained {
		return pos{Slot: s.Base + slot}
	}
	return pos{Seg: s.ID, Slot: slot}
}

// segAt returns the segment holding position p and p's slot in it.
// Extents are few (one per schema change), so a backward linear scan
// finds tuple-first's.
func (e *Engine) segAt(p pos) (*hseg, int64) {
	if !e.chained {
		return e.cat.Segs[p.Seg], p.Slot
	}
	segs := e.cat.Segs
	i := len(segs) - 1
	for i > 0 && p.Slot < segs[i].Base {
		i--
	}
	return segs[i], p.Slot - segs[i].Base
}

// livePos returns the position of pk's version live in a branch's
// bitmaps, or store.NoPos when they hold none.
func (e *Engine) livePos(live map[segID]*bitmap.Bitmap, pk int64) pos {
	if e.chained {
		// Every position is in space 0: the walk probes one bitmap.
		bm := live[0]
		return e.vers.Find(pk, func(p pos) bool { return bm != nil && bm.Get(int(p.Slot)) })
	}
	return e.vers.Find(pk, func(p pos) bool {
		bm := live[p.Seg]
		return bm != nil && bm.Get(int(p.Slot))
	})
}

// clearLive unsets p's bit in a branch's bitmaps.
func clearLive(live map[segID]*bitmap.Bitmap, p pos) {
	if bm := live[p.Seg]; bm != nil {
		bm.Clear(int(p.Slot))
	}
}

// newSegmentLocked adds an empty segment laid out for cols columns: a
// head segment for owner in hybrid, holding owner's (empty) bitmap, the
// chain's new tail in tuple-first.
func (e *Engine) newSegmentLocked(owner vgraph.BranchID, cols int) (*hseg, error) {
	s := &hseg{Entry: store.Entry{ID: segID(len(e.cat.Segs))}, owner: owner}
	if err := e.cat.Add(s, cols); err != nil {
		return nil, err
	}
	if !e.chained {
		bitmapIn(e.branchLive(owner), s.ID)
	}
	return s, nil
}

// Init implements core.Engine: records the (empty) init commit, which
// registers the master branch, after giving the table its first segment
// — master's head in hybrid, the chain's first extent in tuple-first —
// unless an init the graph never recorded already has.
func (e *Engine) Init(master *vgraph.Branch, c0 *vgraph.Commit) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.cat.Segs) == 0 {
		s, err := e.newSegmentLocked(master.ID, e.hist.PhysCols())
		if err != nil {
			return err
		}
		if !e.chained {
			e.headSeg[master.ID] = s.ID
		}
		if err := e.cat.Save(); err != nil {
			return err
		}
	} else if !e.chained {
		bitmapIn(e.branchLive(master.ID), e.headSeg[master.ID])
	}
	return e.commitLocked(c0)
}

// Branch implements core.Engine. Tuple-first: "a branch operation
// clones the state of the parent branch's bitmap and adds it to the
// index as the initial state of the child branch". Hybrid (Section
// 3.4): besides, the parent's old head freezes into an internal segment
// whose bitmaps now carry both branches; parent and child each get a
// fresh head segment.
func (e *Engine) Branch(child *vgraph.Branch, from *vgraph.Commit) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.branchLocked(child.ID, from)
}

// branchLocked is Branch, and how recover restores a branch that has no
// commits of its own. Such a branch has lost its bitmaps, which are
// rebuilt here as for a new branch; if a hybrid engine never saw it —
// the graph logged it and the process died — it has no head segment
// either and gets one, and the parent a fresh one, as a new branch does.
func (e *Engine) branchLocked(child vgraph.BranchID, from *vgraph.Commit) error {
	if err := e.rollbackLocked(child, from); err != nil {
		return e.errorf("branch %d from commit %d: %w", child, from.ID, err)
	}
	parent := from.Branch
	if _, seen := e.headSeg[child]; seen || e.chained {
		return nil
	}
	// Freeze the parent's head and open fresh heads for both branches.
	if old, ok := e.headSeg[parent]; ok {
		e.cat.Segs[old].Freeze()
	}
	// Both fresh heads start at the branch point's storage generation;
	// a later schema change rotates them lazily on first write.
	cols := e.hist.NumPhysAt(from.SchemaVer)
	np, err := e.newSegmentLocked(parent, cols)
	if err != nil {
		return err
	}
	e.headSeg[parent] = np.ID
	nc, err := e.newSegmentLocked(child, cols)
	if err != nil {
		return err
	}
	e.headSeg[child] = nc.ID
	return e.cat.Save()
}

// Rollback implements core.Engine. The rows written since to stay in
// the segments as dead slots. In the usual abort, to is the branch's
// newest commit, whose bitmaps the logs keep in memory, so no file is
// read or written.
func (e *Engine) Rollback(branch vgraph.BranchID, to *vgraph.Commit) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rollbackLocked(branch, to)
}

// rollbackLocked sets b's bitmaps to their snapshot at commit to — b's
// own, or its branch point on the parent — as a new branch, a branch
// recreated at open and an aborted transaction all get them. The
// version index already holds every position a snapshot can name. Each
// log of b keeps a bitmap, empty or not: b's next commit appends to it.
func (e *Engine) rollbackLocked(b vgraph.BranchID, to *vgraph.Commit) error {
	snap, err := e.checkoutLocked(to.Branch, to.Seq)
	if err != nil {
		return err
	}
	for k := range e.logs {
		if k.Branch == b {
			bitmapIn(snap, k.Seg)
		}
	}
	e.live[b] = snap
	return nil
}

// Commit implements core.Engine: append each of the branch's bitmaps'
// deltas to its history file.
func (e *Engine) Commit(c *vgraph.Commit) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.commitLocked(c)
}

func (e *Engine) commitLocked(c *vgraph.Commit) error {
	if e.chained {
		// A tuple-first branch's one log holds every commit of the
		// branch, from its first.
		bitmapIn(e.branchLive(c.Branch), 0)
	}
	for id, bm := range e.live[c.Branch] {
		k := logKey{Branch: c.Branch, Seg: id}
		l, ok := e.logs[k]
		if !ok {
			var err error
			if l, err = e.openLog(k, c.Seq); err != nil {
				return err
			}
		}
		// Entries from c.Seq on belong to a commit that an engine applied
		// and the graph then took back.
		if err := core.ReconcileLog(l.CommitLog, c.Branch, c.Seq-l.start); err != nil {
			return e.errorf("%w (%s)", err, logName(k, l.start))
		}
		if _, err := l.Append(bm); err != nil {
			return err
		}
		if e.env.Opt.Fsync {
			if err := l.Sync(); err != nil {
				return err
			}
		}
	}
	// The rows the entries vouch for reach the segment files.
	return e.cat.Flush()
}

// checkoutLocked reconstructs the liveness of branch b at commit seq,
// by slot space; spaces where the branch held nothing are left out.
func (e *Engine) checkoutLocked(b vgraph.BranchID, seq int) (map[segID]*bitmap.Bitmap, error) {
	out := make(map[segID]*bitmap.Bitmap)
	for k := range e.logs {
		if k.Branch != b {
			continue
		}
		bm, err := e.segCheckoutLocked(k, seq)
		if err != nil {
			return nil, err
		}
		if bm != nil && bm.Any() {
			out[k.Seg] = bm
		}
	}
	return out, nil
}

// segCheckoutLocked reconstructs the liveness of branch k.Branch at
// commit seq within slot space k.Seg from that pair's history file;
// nil when the branch had no committed state in the space by then.
func (e *Engine) segCheckoutLocked(k logKey, seq int) (*bitmap.Bitmap, error) {
	l, ok := e.logs[k]
	if !ok || l.start > seq {
		return nil, nil
	}
	return l.Checkout(seq - l.start)
}

// InsertBatch implements core.Engine (upsert): each record is appended
// where the branch writes and its bit set there, and the previous
// copy's bit is unset wherever it lives.
func (e *Engine) InsertBatch(branch vgraph.BranchID, recs []*record.Record) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, rec := range recs {
		if err := e.insertLocked(branch, rec); err != nil {
			return err
		}
	}
	return nil
}

// writeSegLocked returns the segment the branch's writes go to — the
// tail of tuple-first's chain, the branch's head segment in hybrid —
// laid out for at least cols physical columns. When a committed schema
// change has widened the layout past it, it freezes (its pages are
// never rewritten) and a fresh segment at the new layout takes its
// place, the same freeze machinery a hybrid branch point uses.
func (e *Engine) writeSegLocked(branch vgraph.BranchID, cols int) (*hseg, error) {
	var s *hseg
	if e.chained {
		s = e.cat.Segs[len(e.cat.Segs)-1]
	} else if head, ok := e.headSeg[branch]; ok {
		s = e.cat.Segs[head]
	} else {
		return nil, e.errorf("branch %d has no head segment", branch)
	}
	if !s.NeedsRotation(cols) {
		return s, nil
	}
	s.Freeze()
	ns, err := e.newSegmentLocked(branch, cols)
	if err != nil {
		return nil, err
	}
	if !e.chained {
		e.headSeg[branch] = ns.ID
	}
	return ns, e.cat.Save()
}

func (e *Engine) insertLocked(branch vgraph.BranchID, rec *record.Record) error {
	live := e.live[branch]
	if live == nil {
		return e.errorf("unknown branch %d", branch)
	}
	// The branch writes at its head commit's schema generation.
	s, err := e.writeSegLocked(branch, e.hist.NumPhysAt(e.env.BranchEpoch(branch)))
	if err != nil {
		return err
	}
	slot, err := e.st.Append(s.Segment, rec)
	if err != nil {
		return err
	}
	if old := e.livePos(live, rec.PK()); old != store.NoPos {
		clearLive(live, old)
	}
	p := e.at(s, slot)
	bitmapIn(live, p.Seg).Set(int(p.Slot))
	e.vers.Push(rec.PK(), p)
	return nil
}

// Delete implements core.Engine. Old records cannot be removed (they
// remain visible in historical commits); the branch's bit is simply
// unset.
func (e *Engine) Delete(branch vgraph.BranchID, pk int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	live := e.live[branch]
	if live == nil {
		return e.errorf("unknown branch %d", branch)
	}
	if old := e.livePos(live, pk); old != store.NoPos {
		clearLive(live, old)
	}
	return nil
}

// SegmentStats implements core.Engine: one summary per segment, zone
// maps included.
func (e *Engine) SegmentStats() []store.SegmentStat {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cat.SegmentStats(func(s *hseg) string {
		if e.chained {
			return fmt.Sprintf("extent%d[base=%d]", s.ID, s.Base)
		}
		name := fmt.Sprintf("seg%d[owner=%d]", s.ID, s.owner)
		if !s.Frozen {
			name += "*" // open head segment
		}
		return name
	})
}

// Stats implements core.Engine.
func (e *Engine) Stats() (core.Stats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	recs, data, _ := e.cat.Totals()
	st := core.Stats{
		Records:        recs,
		DataBytes:      data,
		IndexBytes:     e.vers.Bytes(),
		IndexEntries:   int64(e.vers.Len()),
		SegmentCount:   len(e.cat.Segs),
		PageCacheBytes: e.cat.DecodedBytes(),
	}
	for _, m := range e.live {
		for _, bm := range m {
			st.IndexBytes += int64(bm.Len()+7) / 8
		}
	}
	for _, b := range e.env.Graph.Branches() {
		for _, bm := range e.live[b.ID] {
			st.LiveRecords += int64(bm.Count())
		}
	}
	for _, l := range e.logs {
		sz, err := l.Size()
		if err != nil {
			return st, err
		}
		st.CommitBytes += sz
	}
	return st, nil
}

// CompactSegments implements core.Engine: every frozen segment that is
// no branch's head — every extent but tuple-first's tail — re-encodes
// into compressed pages. Slot numbering is preserved — the whole file
// re-encodes — so bitmaps, logs and the version index need no changes;
// only the catalog entry's encoding tag and file move.
func (e *Engine) CompactSegments() (store.CompactStats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	heads := make(map[segID]bool, len(e.headSeg))
	for _, id := range e.headSeg {
		heads[id] = true
	}
	return e.cat.Compact(func(s *hseg) bool { return s.Frozen && !heads[s.ID] }, nil)
}

// Flush implements core.Engine: it saves the catalog, every segment's
// zone map included, so the maps survive reopen without a rebuild scan.
// Between saves, which come only when the segment table changes, the
// maps may lag the commits; open extends them.
func (e *Engine) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cat.Save()
}

// Close implements core.Engine.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	first := e.cat.Close(true)
	for _, l := range e.logs {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
