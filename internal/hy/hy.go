// Package hy implements Decibel's hybrid storage scheme (Section 3.4):
// records live in version-first-style segment files for locality, while
// liveness is tracked by tuple-first-style bitmaps kept local to each
// segment. A global branch-segment bitmap relates each branch to the
// segments containing records live in it, letting scans skip segments
// and multi-branch operations intersect small per-segment bitmaps
// instead of one giant index.
package hy

import (
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

// segID indexes the engine's segment table (store.Pos.Seg).
type segID = int32

// pos addresses one record copy.
type pos = store.Pos

// hseg is one segment: its catalog entry (heap file, schema-version
// id, zone map, freeze state) plus its local bitmap index, "one bitmap
// per (segment, branch) tracking only the set of branches which inherit
// records contained in that segment".
type hseg struct {
	store.Entry
	owner vgraph.BranchID // branch whose head this segment is/was
	local map[vgraph.BranchID]*bitmap.Bitmap
}

// logKey identifies a per-(branch, segment) commit history file: "in
// hybrid, each (branch, segment) has its own file" (Section 5.3).
type logKey struct {
	Branch vgraph.BranchID
	Seg    segID
}

// Engine is the hybrid storage engine.
type Engine struct {
	mu   sync.Mutex
	env  *core.Env
	hist *record.History
	st   *store.Store

	// cat is the segment table in scan order (the order every scan
	// shape visits segments); byID resolves the stable segment ids that
	// positions, logs and the catalog reference. The two diverge in
	// datasets compacted before merge compaction was removed: a merged
	// segment took a fresh id but sits at its run's position. nextID is
	// the next unused id (ids are never reused, so those merged-away
	// ids stay retired).
	cat     *store.Catalog[*hseg]
	byID    map[segID]*hseg
	nextID  segID
	headSeg map[vgraph.BranchID]segID
	// vers is the table's primary-key index: every stored (segment,
	// slot), by key. One index serves all branches; the per-(segment,
	// branch) bitmaps say which version a branch sees. It relies on ids
	// never being reused (above), so a position can never come to name
	// a different record.
	vers *store.VersionIndex

	logs     map[logKey]*bitmap.CommitLog
	startSeq map[logKey]int // branch commit seq at which the log begins
}

// persisted catalog: the shared store state (cols — 0 in
// pre-versioning catalogs, meaning the full layout —, frozen flag,
// zone map) plus hybrid's ownership fields.
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

func init() { core.RegisterEngine("hybrid", Factory, "hy") }

// Factory builds a hybrid engine; it satisfies core.Factory.
func Factory(env *core.Env) (core.Engine, error) {
	e := &Engine{
		env:      env,
		hist:     env.History(),
		st:       store.New(env.Pool, env.History()),
		byID:     make(map[segID]*hseg),
		headSeg:  make(map[vgraph.BranchID]segID),
		logs:     make(map[logKey]*bitmap.CommitLog),
		startSeq: make(map[logKey]int),
	}
	e.cat = store.NewCatalog[*hseg](e.st, env.Dir, env.Opt.Fsync, env.Opt.CompactionFailPoint, store.Layout{
		File: "segments.json", Prefix: "seg", Heap: ".dat",
	}, e.catalog)
	err := e.recover()
	if err == nil {
		e.vers, err = e.cat.Versions()
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
func (e *Engine) Kind() string { return "hybrid" }

func (e *Engine) logPath(k logKey) string {
	return filepath.Join(e.env.Dir, "commits", fmt.Sprintf("b%d_s%d.hist", k.Branch, k.Seg))
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

// catalog is the catalog as segments.json holds it.
func (e *Engine) catalog() any {
	m := metaJSON{HeadSeg: e.headSeg, StartSeq: make(map[string]int)}
	for _, s := range e.cat.Segs {
		m.Segments = append(m.Segments, segMetaJSON{SegMeta: s.Meta(), ID: s.ID, Owner: s.owner})
	}
	for k, seq := range e.startSeq {
		m.StartSeq[fmt.Sprintf("%d:%d", k.Branch, k.Seg)] = seq
	}
	return &m
}

// recover reloads the catalog and restores each (branch, segment)
// bitmap to its last committed snapshot. What is committed is the
// version graph's call — its log record is written after the engines'
// — so each history file first drops its entries past the graph's
// count for the branch.
func (e *Engine) recover() error {
	var m metaJSON
	if err := e.cat.Load(&m); err != nil || m.Segments == nil {
		return err
	}
	// Catalog order is scan order — in datasets an older merge
	// compaction touched it is not sorted by id (the merged segment
	// kept its run's position under a fresh id), so it must not be
	// re-sorted here.
	for _, sm := range m.Segments {
		s := &hseg{Entry: store.Entry{ID: sm.ID}, owner: sm.Owner, local: make(map[vgraph.BranchID]*bitmap.Bitmap)}
		e.cat.Segs = append(e.cat.Segs, s)
		e.byID[s.ID] = s
		e.nextID = max(e.nextID, sm.ID+1)
	}
	// The store resolves a zero Cols (catalog from before schema
	// versioning) to the full layout, re-freezes frozen segments and
	// restores — or rebuilds, for catalogs from before zone maps — each
	// segment's zone map. Every row is kept: the bitmaps say which are
	// live.
	if err := e.cat.Open(func(i int) (store.SegMeta, int64) { return m.Segments[i].SegMeta, -1 }); err != nil {
		return fmt.Errorf("hy: %w", err)
	}
	e.sweepLogs()
	e.headSeg = m.HeadSeg
	if e.headSeg == nil {
		e.headSeg = make(map[vgraph.BranchID]segID)
	}
	restored := make(map[vgraph.BranchID]bool)
	for key, seq := range m.StartSeq {
		var b vgraph.BranchID
		var s segID
		if _, err := fmt.Sscanf(key, "%d:%d", &b, &s); err != nil {
			return fmt.Errorf("hy: corrupt startSeq key %q", key)
		}
		hs, ok := e.byID[s]
		if !ok {
			return fmt.Errorf("hy: corrupt catalog: log for missing segment %d", s)
		}
		k := logKey{Branch: b, Seg: s}
		l, err := e.openLog(k)
		if err != nil {
			return err
		}
		keep := e.env.Graph.NumCommitsOn(b) - seq
		if err := core.ReconcileLog(l, b, max(keep, 0)); err != nil {
			return fmt.Errorf("hy: %w (segment %d, whose history starts at commit %d)", err, s, seq)
		}
		if keep <= 0 {
			// The file's first entry was already past the graph: the
			// branch has no committed state in this segment.
			continue
		}
		e.startSeq[k] = seq
		hs.local[b] = l.Head()
		restored[b] = true
	}
	// Branches never committed to have no (branch, segment) logs of
	// their own: they are created again, at their branch point.
	for _, br := range e.env.Graph.Branches() {
		if restored[br.ID] || br.From == vgraph.None {
			continue
		}
		from, err := e.env.BranchPoint(br)
		if err != nil {
			return fmt.Errorf("hy: %w", err)
		}
		if err := e.branchLocked(br.ID, from); err != nil {
			return err
		}
	}
	return nil
}

// sweepLogs removes the commit logs of segment ids the catalog does not
// know, before any log is opened and before a new segment takes an id.
// It matters for datasets from before merge compaction was removed: a
// merge that crashed before its catalog rename left logs under the id
// the next new segment takes, which would otherwise open stale
// liveness.
func (e *Engine) sweepLogs() {
	logDir := filepath.Join(e.env.Dir, "commits")
	ents, err := os.ReadDir(logDir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		var b vgraph.BranchID
		var s segID
		if n, err := fmt.Sscanf(ent.Name(), "b%d_s%d.hist", &b, &s); err != nil || n != 2 {
			continue
		}
		if _, ok := e.byID[s]; !ok {
			os.Remove(filepath.Join(logDir, ent.Name()))
		}
	}
}

// livePos returns the position of pk's version live in the branch, or
// store.NoPos when the branch has none.
func (e *Engine) livePos(branch vgraph.BranchID, pk int64) pos {
	return e.vers.Find(pk, func(p pos) bool {
		bm, ok := e.byID[p.Seg].local[branch]
		return ok && bm.Get(int(p.Slot))
	})
}

// clearLive unsets the branch's bit at p.
func (e *Engine) clearLive(branch vgraph.BranchID, p pos) {
	if bm, ok := e.byID[p.Seg].local[branch]; ok {
		bm.Clear(int(p.Slot))
	}
}

// setLive sets the branch's bit at a slot of s, creating the branch's
// bitmap there when it first sees the segment.
func (e *Engine) setLive(branch vgraph.BranchID, s *hseg, slot int64) {
	bm := s.local[branch]
	if bm == nil {
		bm = bitmap.New(0)
		s.local[branch] = bm
	}
	bm.Set(int(slot))
}

// newSegmentLocked adds an empty head segment for owner, laid out for
// cols columns, holding owner's (empty) bitmap.
func (e *Engine) newSegmentLocked(owner vgraph.BranchID, cols int) (*hseg, error) {
	s := &hseg{Entry: store.Entry{ID: e.nextID}, owner: owner, local: make(map[vgraph.BranchID]*bitmap.Bitmap)}
	if err := e.cat.Add(s, cols); err != nil {
		return nil, err
	}
	s.local[owner] = bitmap.New(0)
	e.byID[s.ID] = s
	e.nextID++
	return s, nil
}

// Init implements core.Engine.
func (e *Engine) Init(master *vgraph.Branch, c0 *vgraph.Commit) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, err := e.newSegmentLocked(master.ID, e.hist.PhysCols())
	if err != nil {
		return err
	}
	e.headSeg[master.ID] = s.ID
	return e.commitLocked(c0)
}

// Branch implements core.Engine (Section 3.4): the parent's old head
// freezes into an internal segment whose bitmap now carries both
// branches; parent and child each get a fresh head segment.
func (e *Engine) Branch(child *vgraph.Branch, from *vgraph.Commit) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.branchLocked(child.ID, from)
}

// branchLocked is Branch, and how recover restores a branch that has no
// commits of its own. Such a branch has lost its bitmaps, which are
// rebuilt here as for a new branch; if the engine never saw it — the
// graph logged it and the process died — it has no head segment either
// and gets one, and the parent a fresh one, as a new branch does.
func (e *Engine) branchLocked(child vgraph.BranchID, from *vgraph.Commit) error {
	parent := from.Branch
	snap, err := e.checkoutLocked(parent, from.Seq)
	if err != nil {
		return fmt.Errorf("hy: branch %d from commit %d: %w", child, from.ID, err)
	}
	// The version index already holds every position the snapshot can
	// name, so the bitmaps are all a branch needs — from a historical
	// commit as much as from the head.
	for id, bm := range snap {
		e.byID[id].local[child] = bm
	}
	if _, seen := e.headSeg[child]; seen {
		return nil
	}
	// Freeze the parent's head and open fresh heads for both branches.
	if old, ok := e.headSeg[parent]; ok {
		e.byID[old].Freeze()
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

// Commit implements core.Engine: append each (branch, segment) local
// bitmap delta to its history file.
func (e *Engine) Commit(c *vgraph.Commit) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.commitLocked(c)
}

func (e *Engine) commitLocked(c *vgraph.Commit) error {
	for _, s := range e.cat.Segs {
		bm, ok := s.local[c.Branch]
		if !ok {
			continue
		}
		k := logKey{Branch: c.Branch, Seg: s.ID}
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
			return fmt.Errorf("hy: %w (segment %d, whose history starts at commit %d)", err, s.ID, e.startSeq[k])
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
	// Saving flushes the rows the logs vouch for, on every head.
	return e.cat.Save()
}

// checkoutLocked reconstructs the per-segment liveness of branch b at
// commit seq.
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
// commit seq within segment k.Seg from that pair's history file, whose
// entries begin at the branch's commit startSeq[k]; nil when the branch
// had no committed state in the segment by then.
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

// InsertBatch implements core.Engine: each record is appended to the
// branch's head segment and its bit set there, and the previous copy's
// bit is unset wherever it lives.
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

// writeHeadLocked returns the branch's head segment, rotating it
// through the shared store when a committed schema change has widened
// the branch's storage generation: the old head freezes into an
// internal segment (its pages are never rewritten) and a fresh head at
// the new layout takes subsequent appends — the same freeze machinery
// a branch point uses.
func (e *Engine) writeHeadLocked(branch vgraph.BranchID) (*hseg, error) {
	head, ok := e.headSeg[branch]
	if !ok {
		return nil, fmt.Errorf("hy: branch %d has no head segment", branch)
	}
	s := e.byID[head]
	need := e.hist.NumPhysAt(e.env.BranchEpoch(branch))
	if !s.NeedsRotation(need) {
		return s, nil
	}
	s.Freeze()
	hs, err := e.newSegmentLocked(branch, need)
	if err != nil {
		return nil, err
	}
	e.headSeg[branch] = hs.ID
	return hs, e.cat.Save()
}

func (e *Engine) insertLocked(branch vgraph.BranchID, rec *record.Record) error {
	s, err := e.writeHeadLocked(branch)
	if err != nil {
		return err
	}
	slot, err := e.st.Append(s.Segment, rec)
	if err != nil {
		return err
	}
	if old := e.livePos(branch, rec.PK()); old != store.NoPos {
		e.clearLive(branch, old)
	}
	e.setLive(branch, s, slot)
	e.vers.Push(rec.PK(), pos{Seg: s.ID, Slot: slot})
	return nil
}

// Delete implements core.Engine.
func (e *Engine) Delete(branch vgraph.BranchID, pk int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.headSeg[branch]; !ok {
		return fmt.Errorf("hy: unknown branch %d", branch)
	}
	if old := e.livePos(branch, pk); old != store.NoPos {
		e.clearLive(branch, old)
	}
	return nil
}

// SegmentStats implements core.Engine: one summary per segment, zone
// maps included.
func (e *Engine) SegmentStats() []store.SegmentStat {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cat.SegmentStats(func(s *hseg) string {
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
		Records:      recs,
		DataBytes:    data,
		IndexBytes:   e.vers.Bytes(),
		IndexEntries: int64(e.vers.Len()),
		SegmentCount: len(e.cat.Segs),
	}
	for _, s := range e.cat.Segs {
		for _, bm := range s.local {
			st.IndexBytes += int64(bm.Len()+7) / 8
		}
	}
	for _, b := range e.env.Graph.Branches() {
		for _, s := range e.cat.Segs {
			if bm, ok := s.local[b.ID]; ok {
				st.LiveRecords += int64(bm.Count())
			}
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

// CompactSegments implements core.Engine for the hybrid scheme: every
// frozen segment that is no branch's head re-encodes into compressed
// pages. Slot numbering is preserved — the whole file re-encodes — so
// bitmaps, logs and the version index need no changes; only the catalog
// entry's encoding tag and file move.
func (e *Engine) CompactSegments() (store.CompactStats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	heads := make(map[segID]bool, len(e.headSeg))
	for _, id := range e.headSeg {
		heads[id] = true
	}
	return e.cat.Compact(func(s *hseg) bool { return s.Frozen && !heads[s.ID] }, nil)
}

// Flush implements core.Engine.
func (e *Engine) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cat.Flush()
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
