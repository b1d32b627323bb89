// Package vf implements Decibel's version-first storage scheme
// (Section 3.3): each branch stores its local modifications in its own
// segment file; a child segment records a (parent file, offset) branch
// point; a chain of such segments constitutes the full lineage of a
// branch. Commits map commit IDs to offsets in the committing branch's
// segment. Deletes append tombstone records. Merges create a new head
// segment with two parent pointers and a recorded precedence.
package vf

import (
	"fmt"
	"maps"
	"slices"
	"sync"

	"decibel/internal/bitmap"
	"decibel/internal/core"
	"decibel/internal/record"
	"decibel/internal/store"
	"decibel/internal/vgraph"
)

// segID indexes the engine's segment table (store.Pos.Seg).
type segID = int32

// pos addresses one record copy: a segment and a slot within it.
type pos = store.Pos

// link is a segment's parent pointer, written once at creation. Merge
// segments carry two parents plus the recorded LCA and precedence.
type link struct {
	ParentSeg    segID           `json:"parentSeg"`
	ParentSlot   int64           `json:"parentSlot"`
	ParentCommit vgraph.CommitID `json:"parentCommit"`

	IsMerge         bool            `json:"isMerge,omitempty"`
	OtherSeg        segID           `json:"otherSeg,omitempty"`
	OtherSlot       int64           `json:"otherSlot,omitempty"`
	OtherCommit     vgraph.CommitID `json:"otherCommit,omitempty"`
	LCACommit       vgraph.CommitID `json:"lcaCommit,omitempty"`
	PrecedenceFirst bool            `json:"precedenceFirst,omitempty"`
}

// segMeta is the persisted description of one segment: the shared
// store state (schema-version id, freeze flag, encoding and zone map)
// plus version-first's lineage fields. Segment i is listed at
// position i.
type segMeta struct {
	store.SegMeta
	ID        segID           `json:"id"`
	Branch    vgraph.BranchID `json:"branch"`
	HasLink   bool            `json:"hasLink"`
	Link      link            `json:"link"`
	SafeCount int64           `json:"safeCount"` // slots valid at last persist; reopen truncates past this
	Overrides []override      `json:"overrides,omitempty"`
}

// meta is the engine's persisted catalog, saved on every
// version-control operation (commit, branch, merge), which are the
// atomicity points of Section 2.2.3.
type meta struct {
	Segments []segMeta                 `json:"segments"`
	ByBranch map[vgraph.BranchID]segID `json:"byBranch"`
	Commits  map[vgraph.CommitID]pos   `json:"commits"`
}

// segment is the in-memory segment state: the catalog entry plus
// version-first's lineage link. Ids are positions in the table.
type segment struct {
	store.Entry
	branch    vgraph.BranchID
	hasLink   bool
	link      link
	overrides []override
}

// Engine is the version-first storage engine.
type Engine struct {
	mu   sync.Mutex
	env  *core.Env
	hist *record.History
	st   *store.Store

	cat      *store.Catalog[*segment]
	byBranch map[vgraph.BranchID]segID
	commits  map[vgraph.CommitID]pos

	// vers indexes every stored copy and tombstone by key, newest first
	// (store.VersionIndex); dead marks each segment's tombstone slots.
	vers *store.VersionIndex
	dead []bitmap.Bitmap

	// Scan-plan cache (see cache.go): pcache holds each position's live
	// slots as one bitmap per segment; lineMemo memoizes rawLineage and
	// stepMemo lineageAt (the deduplicated steps point lookups probe).
	// All nil when the cache is off (Options.VFLineageCacheOff, a
	// test-only switch), which forces every resolution onto the
	// full-walk path. derived counts the plans derived from each kind of
	// base.
	pcache   *lru[pos, *planEntry]
	lineMemo map[pos][]step
	stepMemo map[pos][]step
	derived  [baseKinds]int
}

// Factory builds a version-first engine; it satisfies core.Factory.
func Factory(env *core.Env) (core.Engine, error) {
	e := &Engine{
		env:      env,
		hist:     env.History(),
		st:       store.New(env.Pool, env.History()),
		byBranch: make(map[vgraph.BranchID]segID),
		commits:  make(map[vgraph.CommitID]pos),
	}
	if !env.Opt.VFLineageCacheOff {
		e.pcache = newLRU[pos](cacheBudget, func(en *planEntry) int { return en.words })
		e.lineMemo = make(map[pos][]step)
		e.stepMemo = make(map[pos][]step)
	}
	e.cat = store.NewCatalog[*segment](e.st, env.Dir, env.Opt.Fsync, env.Opt.CompactionFailPoint, false, e.catalog)
	err := e.recover()
	if err == nil {
		e.vers, err = e.cat.Versions(e.markDead)
	}
	if err != nil {
		// Release every segment the failed open has opened so far.
		e.cat.Close(false)
		return nil, err
	}
	return e, nil
}

// Kind implements core.Engine.
func (e *Engine) Kind() string { return "version-first" }

// catalog is the catalog as segments.json holds it. A segment's
// SafeCount is the highest slot any commit or branch/merge link
// references: appends beyond it are uncommitted and roll back on reopen
// (Section 2.2.3 — updates are "rolled back if the client crashes or
// disconnects before committing"). Caller holds e.mu.
func (e *Engine) catalog() any {
	safe := e.safeCountsLocked()
	m := meta{ByBranch: e.byBranch, Commits: e.commits}
	for _, s := range e.cat.Segs {
		m.Segments = append(m.Segments, segMeta{
			SegMeta: s.Meta(),
			ID:      s.ID, Branch: s.branch, HasLink: s.hasLink, Link: s.link,
			SafeCount: safe[s.ID], Overrides: s.overrides,
		})
	}
	return &m
}

// safeCountsLocked computes each segment's safe count — the highest
// slot any commit, branch/merge link or override references. Appends
// beyond it are uncommitted and roll back on reopen; compaction may
// only touch segments whose whole file is safe. Caller holds e.mu.
func (e *Engine) safeCountsLocked() map[segID]int64 {
	safe := make(map[segID]int64, len(e.cat.Segs))
	for _, p := range e.commits {
		if p.Slot > safe[p.Seg] {
			safe[p.Seg] = p.Slot
		}
	}
	for _, s := range e.cat.Segs {
		if !s.hasLink {
			continue
		}
		if s.link.ParentSlot > safe[s.link.ParentSeg] {
			safe[s.link.ParentSeg] = s.link.ParentSlot
		}
		if s.link.IsMerge && s.link.OtherSlot > safe[s.link.OtherSeg] {
			safe[s.link.OtherSeg] = s.link.OtherSlot
		}
		for _, ov := range s.overrides {
			if !ov.Deleted && ov.Slot+1 > safe[ov.Seg] {
				safe[ov.Seg] = ov.Slot + 1
			}
		}
	}
	return safe
}

// recover loads the catalog and rolls back uncommitted appends by
// truncating each segment to the highest slot a commit or a link still
// references. What is committed is the version graph's call — its log
// record is written after the engines' — so a commit the catalog
// records and the graph lacks is rolled back with the appends.
func (e *Engine) recover() error {
	var m meta
	if err := e.cat.Load(&m); err != nil || m.Segments == nil {
		return err
	}
	e.byBranch = m.ByBranch
	if e.byBranch == nil {
		e.byBranch = make(map[vgraph.BranchID]segID)
	}
	e.commits = m.Commits
	if e.commits == nil {
		e.commits = make(map[vgraph.CommitID]pos)
	}
	if err := e.reconcile(&m); err != nil {
		return err
	}
	for _, sm := range m.Segments {
		e.cat.Segs = append(e.cat.Segs, &segment{
			Entry: store.Entry{ID: sm.ID}, branch: sm.Branch,
			hasLink: sm.HasLink, link: sm.Link, overrides: sm.Overrides,
		})
	}
	// The catalog refuses an id listed at another position; the store
	// rolls back appends past the safe count and extends each zone map
	// over the rows it does not cover.
	safe := e.safeCountsLocked()
	err := e.cat.Open(func(i int) (store.SegMeta, int64) {
		sm := m.Segments[i]
		return sm.SegMeta, min(sm.SafeCount, safe[sm.ID])
	})
	if err != nil {
		return fmt.Errorf("vf: %w", err)
	}
	return e.recoverHeads()
}

// recoverHeads gives every branch of the graph a head segment that
// holds nothing past the branch's last commit. A branch without one was
// logged by the graph and never reached the engine; it is created now,
// at its branch point. A head with rows past the last commit kept them
// through the truncation above because a merge took the branch's
// uncommitted rows and its link still pins them; a head is "the file's
// current count", so the branch would go on reading what it never
// committed. It moves to a fresh head linked at the committed count,
// and the old segment stays a lineage parent for the merge to read.
// Both are checks of in-memory tables; neither reads a row.
func (e *Engine) recoverHeads() error {
	changed := false
	for _, b := range e.env.Graph.Branches() {
		id, seen := e.byBranch[b.ID]
		if !seen {
			if b.From == vgraph.None {
				continue
			}
			from, err := e.env.BranchPoint(b)
			if err != nil {
				return fmt.Errorf("vf: %w", err)
			}
			if err := e.branchLocked(b.ID, from); err != nil {
				return err
			}
			changed = true
			continue
		}
		s := e.cat.Segs[id]
		var committed int64
		if p, ok := e.commits[b.Head]; ok && p.Seg == id {
			committed = p.Slot
		}
		if s.File.Count() > committed {
			if _, err := e.linkHeadLocked(b.ID, s.Cols, link{ParentSeg: id, ParentSlot: committed, ParentCommit: b.Head}); err != nil {
				return err
			}
			changed = true
		}
	}
	if !changed {
		return nil
	}
	return e.cat.Save()
}

// reconcile brings the loaded catalog into line with the version graph.
// The catalog can be ahead by the one commit or merge whose graph
// record was never written: its offset is forgotten — which lowers the
// segment's safe count, so its rows go too — and a merge's head
// segment, which is then the newest segment, is dropped with the
// branch back on the parent it came from. The graph ahead of the
// catalog can only mean lost files, and is an error.
func (e *Engine) reconcile(m *meta) error {
	for _, b := range e.env.Graph.Branches() {
		on := e.env.Graph.CommitsOnBranch(b.ID)
		have := 0
		for _, c := range on {
			if _, ok := e.commits[c.ID]; ok {
				have++
			}
		}
		if have < len(on) {
			return fmt.Errorf("vf: %w", core.BehindGraph(b.ID, len(on), have))
		}
	}
	committed := make(map[segID]bool)
	ahead := false
	for id, p := range e.commits {
		if _, ok := e.env.Graph.Commit(id); ok {
			committed[p.Seg] = true
		} else {
			delete(e.commits, id)
			ahead = true
		}
	}
	n := len(m.Segments)
	if !ahead || n == 0 {
		return nil
	}
	d := m.Segments[n-1]
	if !d.HasLink || !d.Link.IsMerge || committed[d.ID] || e.byBranch[d.Branch] != d.ID {
		return nil
	}
	parent := &m.Segments[d.Link.ParentSeg]
	if parent.Encoding == store.EncDCZ {
		// Compressed since: it cannot take appends again. The merged head
		// stays, as uncommitted work on the branch.
		return nil
	}
	parent.Frozen = false
	e.byBranch[d.Branch] = parent.ID
	m.Segments = m.Segments[:n-1]
	return nil
}

// newSegmentLocked creates a fresh segment file for a branch, encoded
// under the physical layout with cols columns (the segment's
// schema-version id).
func (e *Engine) newSegmentLocked(branch vgraph.BranchID, cols int) (*segment, error) {
	s := &segment{Entry: store.Entry{ID: segID(len(e.cat.Segs))}, branch: branch}
	if err := e.cat.Add(s, cols); err != nil {
		return nil, err
	}
	return s, nil
}

// linkHeadLocked makes a fresh segment with cols columns the head of
// branch, linked to its parent at (segment, slot, commit): a new
// branch's branch point, the old head a rotation leaves behind as an
// ordinary lineage parent, or a merge's two parents.
func (e *Engine) linkHeadLocked(branch vgraph.BranchID, cols int, parent link) (*segment, error) {
	s, err := e.newSegmentLocked(branch, cols)
	if err != nil {
		return nil, err
	}
	s.hasLink, s.link = true, parent
	e.byBranch[branch] = s.ID
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
	e.byBranch[master.ID] = s.ID
	e.commits[c0.ID] = pos{Seg: s.ID, Slot: 0}
	return e.cat.Save()
}

// Branch implements core.Engine: "we locate the current end of the
// parent segment file (via a byte offset) and create a branch point. A
// new child segment file is created that notes the parent file and the
// offset of this branch point."
func (e *Engine) Branch(child *vgraph.Branch, from *vgraph.Commit) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.branchLocked(child.ID, from); err != nil {
		return err
	}
	return e.cat.Save()
}

// branchLocked is Branch short of persisting the catalog; recover
// creates the branches the engine never saw with it.
func (e *Engine) branchLocked(child vgraph.BranchID, from *vgraph.Commit) error {
	p, ok := e.commits[from.ID]
	if !ok {
		return fmt.Errorf("vf: commit %d has no recorded offset", from.ID)
	}
	_, err := e.linkHeadLocked(child, e.hist.NumPhysAt(from.SchemaVer), link{ParentSeg: p.Seg, ParentSlot: p.Slot, ParentCommit: from.ID})
	return err
}

// Commit implements core.Engine: "version-first supports commits by
// mapping a commit ID to the byte offset of the latest record that is
// active in the committing branch's segment file."
func (e *Engine) Commit(c *vgraph.Commit) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.commitLocked(c)
}

func (e *Engine) commitLocked(c *vgraph.Commit) error {
	id, ok := e.byBranch[c.Branch]
	if !ok {
		return fmt.Errorf("vf: unknown branch %d", c.Branch)
	}
	e.commits[c.ID] = pos{Seg: id, Slot: e.cat.Segs[id].File.Count()}
	return e.cat.Save()
}

// head returns the head segment of a branch and its current cut.
func (e *Engine) headLocked(b vgraph.BranchID) (*segment, int64, error) {
	id, ok := e.byBranch[b]
	if !ok {
		return nil, 0, fmt.Errorf("vf: unknown branch %d", b)
	}
	s := e.cat.Segs[id]
	return s, s.File.Count(), nil
}

// writeHeadLocked returns the branch's head segment, rotating it when a
// committed schema change has widened the branch's storage generation
// since the segment was created: the old head becomes an ordinary
// parent in the lineage (its pages are never rewritten — and it is not
// frozen, unlike hybrid's and tuple-first's rotated segments, because
// future appends never target it anyway once byBranch moves on) and a
// fresh segment at the new layout takes subsequent appends.
func (e *Engine) writeHeadLocked(branch vgraph.BranchID) (*segment, error) {
	s, _, err := e.headLocked(branch)
	if err != nil {
		return nil, err
	}
	need := e.hist.NumPhysAt(e.env.BranchEpoch(branch))
	if !s.NeedsRotation(need) {
		return s, nil
	}
	head, _ := e.env.Graph.Head(branch)
	ns, err := e.linkHeadLocked(branch, need, link{ParentSeg: s.ID, ParentSlot: s.File.Count(), ParentCommit: head})
	if err != nil {
		return nil, err
	}
	return ns, e.cat.Save()
}

// appendLocked encodes rec under the segment's physical layout
// (widening older-schema records with declared defaults) and appends
// it through the store, which folds it into the zone map.
func (e *Engine) appendLocked(s *segment, rec *record.Record) error {
	slot, err := e.st.Append(s.Segment, rec)
	if err != nil {
		return err
	}
	e.vers.Push(rec.PK(), pos{Seg: s.ID, Slot: slot})
	return nil
}

// Delete implements core.Engine: "when a tuple is deleted, we insert a
// special record with a deleted header bit".
func (e *Engine) Delete(branch vgraph.BranchID, pk int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, err := e.writeHeadLocked(branch)
	if err != nil {
		return err
	}
	return e.tombstoneLocked(s, pk)
}

// tombstoneLocked appends a tombstone for pk to segment s.
func (e *Engine) tombstoneLocked(s *segment, pk int64) error {
	slot, err := s.AppendTombstone(pk)
	if err != nil {
		return err
	}
	p := pos{Seg: s.ID, Slot: slot}
	e.vers.Push(pk, p)
	e.markDead(p)
	return nil
}

// Rollback implements core.Engine. Segment files only grow, and a
// position is never reused while the process lives, so the head is not
// cut back: each key written since to gets to's copy appended, or a
// tombstone where to holds none. The keys are those of the head's slots
// past to's offset when to lies in the head segment, of all its slots
// otherwise (a fresh branch, or a head rotated or relinked since).
func (e *Engine) Rollback(branch vgraph.BranchID, to *vgraph.Commit) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, cut, err := e.headLocked(branch)
	if err != nil {
		return err
	}
	at, err := e.versionPosLocked(core.Version{Commit: to})
	if err != nil {
		return err
	}
	from := int64(0)
	if at.Seg == s.ID {
		from = at.Slot
	}
	dead := make(map[int64]bool) // by each key's newest write
	err = s.File.Scan(from, cut, func(_ int64, buf []byte) bool {
		dead[record.PKOf(buf)] = record.TombstoneOf(buf)
		return true
	})
	if err != nil || len(dead) == 0 {
		return err
	}
	plan, err := e.planLocked(at)
	if err != nil {
		return err
	}
	for _, pk := range slices.Sorted(maps.Keys(dead)) {
		if p := e.vers.Find(pk, plan.has); p != store.NoPos {
			rec := record.New(e.cat.Segs[p.Seg].Schema)
			if err = e.cat.Segs[p.Seg].File.Read(p.Slot, rec.Bytes()); err == nil {
				err = e.appendLocked(s, rec)
			}
		} else if !dead[pk] {
			err = e.tombstoneLocked(s, pk)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// markDead records that the slot at p holds a tombstone.
func (e *Engine) markDead(p pos) {
	for int(p.Seg) >= len(e.dead) {
		e.dead = append(e.dead, bitmap.Bitmap{})
	}
	e.dead[p.Seg].Set(int(p.Slot))
}

// isDead says whether the slot at p holds a tombstone.
func (e *Engine) isDead(p pos) bool {
	return int(p.Seg) < len(e.dead) && e.dead[p.Seg].Get(int(p.Slot))
}

// SegmentStats implements core.Engine: one summary per lineage
// segment, zone maps included.
func (e *Engine) SegmentStats() []store.SegmentStat {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := e.cat.SegmentStats(func(s *segment) string { return fmt.Sprintf("seg%d[branch=%d]", s.ID, s.branch) })
	for i, s := range e.cat.Segs {
		// The lineage shape behind the segment: how many steps a scan
		// rooted at its tip walks (the cost the lineage cache
		// amortizes) and how many merge overrides it carries.
		if steps, err := e.lineageAt(pos{Seg: s.ID, Slot: s.File.Count()}); err == nil {
			out[i].LineageDepth = len(steps)
		}
		out[i].Overrides = len(s.overrides)
	}
	return out
}

// Stats implements core.Engine.
func (e *Engine) Stats() (core.Stats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := core.Stats{
		SegmentCount:   len(e.cat.Segs),
		PageCacheBytes: e.cat.DecodedBytes(),
		IndexBytes:     e.vers.Bytes(),
		IndexEntries:   int64(e.vers.Len()),
	}
	st.Records, st.DataBytes, st.CommitBytes = e.cat.Totals()
	for i := range e.dead {
		st.IndexBytes += int64(e.dead[i].Len()+7) / 8
	}
	for _, b := range e.env.Graph.Branches() {
		if id, ok := e.byBranch[b.ID]; ok {
			en, err := e.planLocked(pos{Seg: id, Slot: e.cat.Segs[id].File.Count()})
			if err != nil {
				return st, err
			}
			for _, bm := range en.segs {
				if bm != nil {
					st.LiveRecords += int64(bm.Count())
				}
			}
		}
	}
	return st, nil
}

// CompactSegments implements core.Engine for the version-first scheme.
// Segment files ARE the version history here — a parent segment's byte
// ranges are addressed by child branch points and commit offsets — so
// slots can never be renumbered and physical merging is off the table;
// the pass is compression-only. A segment qualifies when it is no
// branch's head (it will never take another append) and every row in it
// is committed (count == safe count).
func (e *Engine) CompactSegments() (store.CompactStats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	heads := e.headsLocked()
	safe := e.safeCountsLocked()
	return e.cat.Compact(func(s *segment) bool {
		return !heads[s.ID] && s.File.Count() == safe[s.ID]
	}, func(s *segment) {
		// Compression preserves slot numbering, so cached resolutions
		// pointing into replaced segments — and the version index's
		// positions — stay readable; drop the plans rooted at them anyway
		// so the cache's validity never depends on the re-encoder's
		// internals.
		e.invalidateResolvedLocked(s.ID)
	})
}

// Flush implements core.Engine: it saves the catalog.
func (e *Engine) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cat.Save()
}

// Close implements core.Engine.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cat.Close(true)
}
