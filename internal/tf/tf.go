// Package tf implements Decibel's tuple-first storage scheme (Section
// 3.2): tuples from every branch live together in one shared heap file,
// and a bitmap index — one bit per (tuple, branch) — records which
// branches each tuple is live in. Of the two layouts Section 3.1 gives
// that index, the engine keeps the branch-oriented one: one bitmap per
// branch, each in its own block of memory.
package tf

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

// Engine is the tuple-first storage engine. All branches share one
// heap — a sequence of fixed-width extents in the shared segment
// catalog, one per schema version the table has stored records under
// (see extent.go); liveness is tracked by the bitmap index over global
// slots; per-branch commit history files store RLE-compressed XOR
// deltas of branch bitmaps.
type Engine struct {
	mu   sync.Mutex
	env  *core.Env
	hist *record.History
	st   *store.Store

	// cat holds the extents, chained into one slot space: an extent's
	// Base is the global slot of its slot 0.
	cat *store.Catalog[*store.Entry]
	// cols is the bitmap index: each branch's liveness over global
	// slots.
	cols map[vgraph.BranchID]*bitmap.Bitmap
	// vers is the table's primary-key index: every stored slot, by key,
	// newest first (positions are {0, global slot}). One index serves
	// all branches; e.cols says which version a branch sees.
	vers *store.VersionIndex
	logs map[vgraph.BranchID]*bitmap.CommitLog
}

func init() { core.RegisterEngine("tuple-first", Factory, "tf") }

// Factory builds a tuple-first engine; it satisfies core.Factory.
func Factory(env *core.Env) (core.Engine, error) {
	e := &Engine{
		env:  env,
		hist: env.History(),
		st:   store.New(env.Pool, env.History()),
		cols: make(map[vgraph.BranchID]*bitmap.Bitmap),
		logs: make(map[vgraph.BranchID]*bitmap.CommitLog),
	}
	e.cat = store.NewCatalog[*store.Entry](e.st, env.Dir, env.Opt.Fsync, env.Opt.CompactionFailPoint, store.Layout{
		File: "extents.json", Prefix: "data.e", Heap: ".heap", First: "data.heap",
		Chained: true,
	}, e.extentTable)
	err := e.openExtents()
	if err == nil {
		err = e.recover()
	}
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
func (e *Engine) Kind() string { return "tuple-first" }

func (e *Engine) logPath(b vgraph.BranchID) string {
	return filepath.Join(e.env.Dir, "commits", fmt.Sprintf("b%d.hist", b))
}

// openLog returns (opening if needed) the commit history file of a
// branch.
func (e *Engine) openLog(b vgraph.BranchID) (*bitmap.CommitLog, error) {
	if l, ok := e.logs[b]; ok {
		return l, nil
	}
	l, err := bitmap.OpenCommitLog(e.logPath(b), bitmap.DefaultLayerFanout)
	if err != nil {
		return nil, err
	}
	e.logs[b] = l
	return l, nil
}

// recover rebuilds in-memory state from the commit history files after
// a reopen: each branch's live bitmap is its last committed snapshot
// (uncommitted modifications are rolled back, per Section 2.2.3). What
// is committed is the version graph's call — its log record is written
// after the engines' — so history entries past the graph's count for
// the branch are dropped first.
func (e *Engine) recover() error {
	for _, b := range e.env.Graph.Branches() {
		l, err := e.openLog(b.ID)
		if err != nil {
			return err
		}
		if err := core.ReconcileLog(l, b.ID, e.env.Graph.NumCommitsOn(b.ID)); err != nil {
			return fmt.Errorf("tf: %w", err)
		}
		if l.NumCommits() > 0 || b.From == vgraph.None {
			e.cols[b.ID] = l.Head()
			continue
		}
		// The branch was never committed to, so its own log is empty: it
		// is created again, at its branch point.
		from, err := e.env.BranchPoint(b)
		if err != nil {
			return fmt.Errorf("tf: %w", err)
		}
		if err := e.branchLocked(b.ID, from); err != nil {
			return err
		}
	}
	return nil
}

// column returns the branch's live bitmap — the engine's own, not a
// copy — or an empty one for a branch the engine never registered.
// Caller holds e.mu.
func (e *Engine) column(b vgraph.BranchID) *bitmap.Bitmap {
	if bm, ok := e.cols[b]; ok {
		return bm
	}
	return bitmap.New(0)
}

// livePos returns the position (Slot the global slot) of pk's version
// live in the branch, or store.NoPos when the branch has none.
func (e *Engine) livePos(branch vgraph.BranchID, pk int64) store.Pos {
	bm := e.column(branch)
	return e.vers.Find(pk, func(p store.Pos) bool { return bm.Get(int(p.Slot)) })
}

// Init implements core.Engine: registers the master branch and records
// the (empty) init commit.
func (e *Engine) Init(master *vgraph.Branch, c0 *vgraph.Commit) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cols[master.ID] = bitmap.New(0)
	return e.commitLocked(c0)
}

// Branch implements core.Engine: "a branch operation clones the state
// of the parent branch's bitmap and adds it to the index as the initial
// state of the child branch".
func (e *Engine) Branch(child *vgraph.Branch, from *vgraph.Commit) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.branchLocked(child.ID, from)
}

// branchLocked is Branch, and how recover restores a branch that has no
// commits of its own: the snapshot comes from the log of the branch
// that made commit from.
func (e *Engine) branchLocked(child vgraph.BranchID, from *vgraph.Commit) error {
	log, err := e.openLog(from.Branch)
	if err != nil {
		return err
	}
	snap, err := log.Checkout(from.Seq)
	if err != nil {
		return fmt.Errorf("tf: branch %d from commit %d: %w", child, from.ID, err)
	}
	e.cols[child] = snap
	return nil
}

// Commit implements core.Engine: append the branch's bitmap delta to
// its commit history file.
func (e *Engine) Commit(c *vgraph.Commit) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.commitLocked(c)
}

func (e *Engine) commitLocked(c *vgraph.Commit) error {
	log, err := e.openLog(c.Branch)
	if err != nil {
		return err
	}
	// Entries from c.Seq on belong to a commit that an engine applied
	// and the graph then took back.
	if err := core.ReconcileLog(log, c.Branch, c.Seq); err != nil {
		return fmt.Errorf("tf: %w", err)
	}
	// The rows the entry vouches for reach the heap files first.
	if err := e.cat.Flush(); err != nil {
		return err
	}
	if _, err := log.Append(e.column(c.Branch)); err != nil {
		return err
	}
	if e.env.Opt.Fsync {
		return log.Sync()
	}
	return nil
}

// InsertBatch implements core.Engine (upsert: each previous copy's bit
// is unset and the new copy appended at the end of the heap file).
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

func (e *Engine) insertLocked(branch vgraph.BranchID, rec *record.Record) error {
	col, ok := e.cols[branch]
	if !ok {
		return fmt.Errorf("tf: unknown branch %d", branch)
	}
	// The branch writes at its head commit's schema generation; widen
	// the shared heap's tail extent if the schema has grown past it.
	if err := e.ensureExtentLocked(e.hist.NumPhysAt(e.env.BranchEpoch(branch))); err != nil {
		return err
	}
	slot, err := e.appendLocked(rec)
	if err != nil {
		return err
	}
	if old := e.livePos(branch, rec.PK()); old != store.NoPos {
		col.Clear(int(old.Slot))
	}
	col.Set(int(slot))
	e.vers.Push(rec.PK(), store.Pos{Slot: slot})
	return nil
}

// Delete implements core.Engine. Old records cannot be removed (they
// remain visible in historical commits); the branch's bit is simply
// unset.
func (e *Engine) Delete(branch vgraph.BranchID, pk int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	col, ok := e.cols[branch]
	if !ok {
		return fmt.Errorf("tf: unknown branch %d", branch)
	}
	if old := e.livePos(branch, pk); old != store.NoPos {
		col.Clear(int(old.Slot))
	}
	return nil
}

// SegmentStats implements core.Engine: one summary per extent, zone
// maps included.
func (e *Engine) SegmentStats() []store.SegmentStat {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cat.SegmentStats(func(x *store.Entry) string {
		return fmt.Sprintf("extent%d[base=%d]", x.ID, x.Base)
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
	for _, bm := range e.cols {
		st.IndexBytes += int64(bm.Len()+7) / 8
	}
	for _, b := range e.env.Graph.Branches() {
		st.LiveRecords += int64(e.column(b.ID).Count())
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

// CompactSegments implements core.Engine: the sealed extents, every one
// but the tail, re-encode into compressed pages. The pass preserves slot
// numbering, which every bitmap, commit delta and the version index
// address globally; extents can never be merged or have rows dropped.
func (e *Engine) CompactSegments() (store.CompactStats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cat.Compact(func(x *store.Entry) bool { return x.Frozen }, nil)
}

// Flush implements core.Engine. The extent table (and with it every
// extent's zone map) is saved alongside the data pages so the maps
// survive reopen without a rebuild scan.
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
