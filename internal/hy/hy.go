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
	"fmt"
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

// hseg is one segment: its catalog entry (heap file, schema-version id,
// zone map, freeze state, base slot in the chain) and, in hybrid, the
// branch whose head it is or was.
type hseg struct {
	store.Entry
	owner vgraph.BranchID
}

// logKey identifies a commit history file: one per branch in
// tuple-first, one per (branch, segment) in hybrid — "in hybrid, each
// (branch, segment) has its own file" (Section 5.3).
type logKey struct {
	Branch vgraph.BranchID
	Seg    segID
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
	// its head segment. It selects the catalog file, the log file names,
	// the segment a write goes to and whether a branch operation freezes
	// the parent's head.
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

	logs     map[logKey]*bitmap.CommitLog
	startSeq map[logKey]int // branch commit seq at which the log begins
}

// Hybrid's persisted catalog (segments.json): the shared store state
// (cols, frozen flag, zone map) plus the ownership fields; segment i
// is listed at position i.
type segMetaJSON struct {
	store.SegMeta
	ID    segID           `json:"id"`
	Owner vgraph.BranchID `json:"owner"`
}

type metaJSON struct {
	Segments []segMetaJSON             `json:"segments"`
	HeadSeg  map[vgraph.BranchID]segID `json:"headSeg"`
	StartSeq map[string]int            `json:"startSeq"` // "branch:seg" -> seq
}

// Tuple-first's persisted extent table (extents.json): the shared store
// state plus a sealed extent's final slot count (0 and unused for the
// open tail, whose count comes from the file length) and, for rewritten
// extents, the data file basename (empty = the naming rule). Every log
// starts at its branch's first commit, so no startSeq is saved.
type extMeta struct {
	store.SegMeta
	Count int64  `json:"count,omitempty"`
	Name  string `json:"name,omitempty"`
}

type extFile struct {
	Extents []extMeta `json:"extents"`
}

// Factory builds a hybrid engine; it satisfies core.Factory.
func Factory(env *core.Env) (core.Engine, error) { return open(env, false) }

// TupleFirstFactory builds a tuple-first engine; it satisfies
// core.Factory.
func TupleFirstFactory(env *core.Env) (core.Engine, error) { return open(env, true) }

func open(env *core.Env, chained bool) (core.Engine, error) {
	e := &Engine{
		env:      env,
		hist:     env.History(),
		st:       store.New(env.Pool, env.History()),
		chained:  chained,
		headSeg:  make(map[vgraph.BranchID]segID),
		live:     make(map[vgraph.BranchID]map[segID]*bitmap.Bitmap),
		logs:     make(map[logKey]*bitmap.CommitLog),
		startSeq: make(map[logKey]int),
	}
	lay := store.Layout{File: "segments.json", Prefix: "seg", Heap: ".dat"}
	if chained {
		lay = store.Layout{File: "extents.json", Prefix: "data.e", Heap: ".heap", First: "data.heap", Chained: true}
	}
	e.cat = store.NewCatalog[*hseg](e.st, env.Dir, env.Opt.Fsync, env.Opt.CompactionFailPoint, lay, e.catalog)
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

func (e *Engine) logPath(k logKey) string {
	name := fmt.Sprintf("b%d_s%d.hist", k.Branch, k.Seg)
	if e.chained {
		name = fmt.Sprintf("b%d.hist", k.Branch)
	}
	return filepath.Join(e.env.Dir, "commits", name)
}

func (e *Engine) openLog(k logKey) (*bitmap.CommitLog, error) {
	if l, ok := e.logs[k]; ok {
		return l, nil
	}
	l, err := bitmap.OpenCommitLog(e.logPath(k), bitmap.DefaultLayerFanout)
	if err != nil {
		return nil, err
	}
	e.logs[k] = l
	return l, nil
}

// catalog is the catalog as extents.json or segments.json holds it.
func (e *Engine) catalog() any {
	if e.chained {
		ef := extFile{Extents: make([]extMeta, len(e.cat.Segs))}
		for i, x := range e.cat.Segs {
			ef.Extents[i] = extMeta{SegMeta: x.Meta(), Name: x.Name}
			if x.Frozen {
				ef.Extents[i].Count = x.File.Count()
			}
		}
		return &ef
	}
	m := metaJSON{HeadSeg: e.headSeg, StartSeq: make(map[string]int)}
	for _, s := range e.cat.Segs {
		m.Segments = append(m.Segments, segMetaJSON{SegMeta: s.Meta(), ID: s.ID, Owner: s.owner})
	}
	for k, seq := range e.startSeq {
		m.StartSeq[fmt.Sprintf("%d:%d", k.Branch, k.Seg)] = seq
	}
	return &m
}

// load reads the catalog file, opens every segment it lists and returns
// the commit logs to restore with the commit seq each begins at. A
// hybrid table the engine has not saved yet has no segments (Init adds
// the first) and nothing to restore: load returns nil.
//
// A tuple-first table the engine has not saved yet has no extents.json
// and one extent, data.heap, at the table's layout: the chain's first.
// Every extent but the tail is sealed, whatever the file says, and
// keeps its sealed count: no slot of the chain maps past it. Each
// branch has one log, begun at its first commit. Every row is kept:
// the bitmaps say which are live.
func (e *Engine) load() (map[logKey]int, error) {
	add := func(id segID, owner vgraph.BranchID, name string) {
		e.cat.Segs = append(e.cat.Segs, &hseg{Entry: store.Entry{ID: id, Name: name}, owner: owner})
	}
	starts := make(map[logKey]int)
	if e.chained {
		var ef extFile
		if err := e.cat.Load(&ef); err != nil {
			return nil, e.errorf("%w", err)
		}
		exts := ef.Extents
		if len(exts) == 0 {
			exts = []extMeta{{SegMeta: store.SegMeta{Cols: e.hist.PhysCols()}}}
		}
		for i, x := range exts {
			add(segID(i), 0, x.Name)
		}
		err := e.cat.Open(func(i int) (store.SegMeta, int64) {
			x := exts[i]
			if x.Frozen = i < len(exts)-1; x.Frozen {
				return x.SegMeta, x.Count
			}
			return x.SegMeta, -1
		})
		if err != nil {
			return nil, e.errorf("extent table: %w", err)
		}
		for _, b := range e.env.Graph.Branches() {
			starts[logKey{Branch: b.ID}] = 0
		}
		return starts, nil
	}
	var m metaJSON
	if err := e.cat.Load(&m); err != nil || m.Segments == nil {
		return nil, err
	}
	// The catalog's Open refuses an id listed at another position.
	for _, sm := range m.Segments {
		add(sm.ID, sm.Owner, "")
	}
	if err := e.cat.Open(func(i int) (store.SegMeta, int64) { return m.Segments[i].SegMeta, -1 }); err != nil {
		return nil, e.errorf("%w", err)
	}
	if m.HeadSeg != nil {
		e.headSeg = m.HeadSeg
	}
	for key, seq := range m.StartSeq {
		var k logKey
		if _, err := fmt.Sscanf(key, "%d:%d", &k.Branch, &k.Seg); err != nil {
			return nil, e.errorf("corrupt startSeq key %q", key)
		}
		if k.Seg < 0 || int(k.Seg) >= len(e.cat.Segs) {
			return nil, e.errorf("corrupt catalog: log for missing segment %d", k.Seg)
		}
		starts[k] = seq
	}
	return starts, nil
}

// recover reloads the catalog and restores each branch's bitmaps to
// their last committed snapshot (uncommitted modifications are rolled
// back, per Section 2.2.3). What is committed is the version graph's
// call — its log record is written after the engines' — so each history
// file first drops its entries past the graph's count for the branch.
func (e *Engine) recover() error {
	starts, err := e.load()
	if err != nil || starts == nil {
		return err
	}
	for k, seq := range starts {
		l, err := e.openLog(k)
		if err != nil {
			return err
		}
		keep := e.env.Graph.NumCommitsOn(k.Branch) - seq
		if err := core.ReconcileLog(l, k.Branch, max(keep, 0)); err != nil {
			return e.errorf("%w (%s, whose history starts at commit %d)", err, filepath.Base(e.logPath(k)), seq)
		}
		if keep <= 0 {
			// The file's first entry was already past the graph: the
			// branch has no committed state there.
			continue
		}
		e.startSeq[k] = seq
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
// registers the master branch, after giving it a head segment in hybrid.
func (e *Engine) Init(master *vgraph.Branch, c0 *vgraph.Commit) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.chained {
		s, err := e.newSegmentLocked(master.ID, e.hist.PhysCols())
		if err != nil {
			return err
		}
		e.headSeg[master.ID] = s.ID
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
	parent := from.Branch
	snap, err := e.checkoutLocked(parent, from.Seq)
	if err != nil {
		return e.errorf("branch %d from commit %d: %w", child, from.ID, err)
	}
	// The version index already holds every position the snapshot can
	// name, so the bitmaps are all a branch needs — from a historical
	// commit as much as from the head.
	e.live[child] = snap
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

// Commit implements core.Engine: append each of the branch's bitmaps'
// deltas to its history file.
func (e *Engine) Commit(c *vgraph.Commit) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.commitLocked(c)
}

func (e *Engine) commitLocked(c *vgraph.Commit) error {
	if e.chained {
		// A tuple-first log holds every commit of its branch, from the
		// first: its start is never saved.
		bitmapIn(e.branchLive(c.Branch), 0)
	}
	for id, bm := range e.live[c.Branch] {
		k := logKey{Branch: c.Branch, Seg: id}
		l, err := e.openLog(k)
		if err != nil {
			return err
		}
		if l.NumCommits() == 0 {
			e.startSeq[k] = c.Seq
		}
		// Entries from c.Seq on belong to a commit that an engine applied
		// and the graph then took back.
		if err := core.ReconcileLog(l, c.Branch, c.Seq-e.startSeq[k]); err != nil {
			return e.errorf("%w (%s, whose history starts at commit %d)", err, filepath.Base(e.logPath(k)), e.startSeq[k])
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
	// The rows the entries vouch for reach the segment files; hybrid
	// saves its catalog, whose startSeq the new logs extend.
	if e.chained {
		return e.cat.Flush()
	}
	return e.cat.Save()
}

// checkoutLocked reconstructs the liveness of branch b at commit seq,
// by slot space; spaces where the branch held nothing are left out.
func (e *Engine) checkoutLocked(b vgraph.BranchID, seq int) (map[segID]*bitmap.Bitmap, error) {
	out := make(map[segID]*bitmap.Bitmap)
	for k := range e.startSeq {
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
// commit seq within slot space k.Seg from that pair's history file,
// whose entries begin at the branch's commit startSeq[k]; nil when the
// branch had no committed state in the space by then.
func (e *Engine) segCheckoutLocked(k logKey, seq int) (*bitmap.Bitmap, error) {
	start, ok := e.startSeq[k]
	if !ok || start > seq {
		return nil, nil
	}
	l, err := e.openLog(k)
	if err != nil {
		return nil, err
	}
	return l.Checkout(seq - start)
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
