package hy

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"decibel/internal/bitmap"
	"decibel/internal/compact"
	"decibel/internal/store"
	"decibel/internal/vgraph"
)

// segFilePath returns the data file of a segment under the given
// encoding: seg<id>.dat for heap files (the legacy name, so existing
// datasets open unchanged), seg<id>.dcz for compressed ones.
func (e *Engine) segFilePath(id segID, enc string) string {
	if enc == store.EncDCZ {
		return filepath.Join(e.env.Dir, fmt.Sprintf("seg%d.dcz", id))
	}
	return e.segPath(id)
}

// CompactSegments implements core.Engine for the hybrid scheme, the
// only engine whose layout permits physical merging: liveness lives in
// per-(segment, branch) bitmaps and per-(branch, segment) commit logs,
// both of which can be remapped to new slots, so runs of small frozen
// segments collapse into one larger compressed segment, dropping rows
// no bitmap or recorded commit can reach. Remaining frozen heap
// segments are then re-encoded to compressed pages in place (slot
// numbering preserved, so no index or log changes).
func (e *Engine) CompactSegments(opt compact.Options) (compact.Stats, error) {
	opt = opt.Defaults()
	var st compact.Stats
	if opt.Mode == compact.ModeOff {
		return st, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		run := e.findRunLocked(opt)
		if run == nil {
			break
		}
		if err := e.mergeRunLocked(run, opt, &st); err != nil {
			return st, err
		}
	}
	if opt.Compress {
		if err := e.compressLocked(opt, &st); err != nil {
			return st, err
		}
	}
	return st, nil
}

// findRunLocked returns the first run of at least MinRun consecutive
// (in scan order) frozen, heap-encoded, small, non-head segments with
// the same physical layout — the unit one merge collapses. Merged
// output is compressed (EncDCZ), so a produced segment never qualifies
// again and the caller's loop terminates.
func (e *Engine) findRunLocked(opt compact.Options) []*hseg {
	heads := make(map[segID]bool, len(e.headSeg))
	for _, id := range e.headSeg {
		heads[id] = true
	}
	var run []*hseg
	for _, s := range e.segs {
		ok := s.Frozen && !heads[s.id] && s.Encoding != store.EncDCZ &&
			s.File.Count() < opt.SmallRows &&
			(len(run) == 0 || run[0].Cols == s.Cols)
		if ok {
			run = append(run, s)
			continue
		}
		if len(run) >= opt.MinRun {
			return run
		}
		run = run[:0]
		// s itself may start the next run.
		if s.Frozen && !heads[s.id] && s.Encoding != store.EncDCZ && s.File.Count() < opt.SmallRows {
			run = append(run, s)
		}
	}
	if len(run) >= opt.MinRun {
		return run
	}
	return nil
}

// mergeRunLocked folds one run into a single compressed segment under
// a fresh id placed at the run's position in the segment table, so
// every scan shape visits the surviving rows in exactly the order it
// did before.
//
// A row survives if any branch's local bitmap has its bit set or any
// recorded commit's snapshot (any entry of any (branch, segment) log
// on a run member) includes it; everything else is tombstone debris no
// read can reach. Per-branch logs of the run members are rewritten
// into one log against the merged segment — entry seq s holds the
// union of the members' seq-s snapshots with slots remapped — which
// preserves every historical checkout bit-for-bit.
//
// Crash safety is store.Swap's protocol: the merged data file and the
// rewritten logs are written and fsynced first, the catalog rename
// commits the swap, and only then are the replaced files unlinked —
// data files deferred until their pinned readers drain.
func (e *Engine) mergeRunLocked(run []*hseg, opt compact.Options, st *compact.Stats) error {
	inRun := make(map[segID]bool, len(run))
	for _, s := range run {
		inRun[s.id] = true
	}

	// Keep-set per member: bits reachable from any branch head or any
	// recorded commit.
	keep := make(map[segID]*bitmap.Bitmap, len(run))
	for _, s := range run {
		u := bitmap.New(0)
		for _, bm := range s.local {
			u.Or(bm)
		}
		keep[s.id] = u
	}
	for k := range e.startSeq {
		if !inRun[k.Seg] {
			continue
		}
		l, err := e.openLog(k)
		if err != nil {
			return err
		}
		for i := 0; i < l.NumCommits(); i++ {
			bm, err := l.Checkout(i)
			if err != nil {
				return err
			}
			keep[k.Seg].Or(bm)
		}
	}

	// Write the merged segment: surviving rows in scan order (member
	// order, slot order), slots remapped densely.
	newID := e.nextID
	cols := run[0].Cols
	schema := run[0].Schema
	w := store.NewCompressedWriter(schema, run[0].File.PerPage())
	zone := store.NewZoneMap(schema.NumColumns())
	remap := make(map[pos]pos)
	var next int64
	var dropped int64
	for _, s := range run {
		count := s.File.Count()
		k := keep[s.id]
		buf := make([]byte, schema.RecordSize())
		for slot := int64(0); slot < count; slot++ {
			if !k.Get(int(slot)) {
				dropped++
				continue
			}
			if err := s.File.Read(slot, buf); err != nil {
				return err
			}
			if err := w.Append(buf); err != nil {
				return err
			}
			zone.Update(schema, buf)
			remap[pos{Seg: s.id, Slot: slot}] = pos{Seg: newID, Slot: next}
			next++
		}
	}
	newPath := e.segFilePath(newID, store.EncDCZ)
	if err := w.WriteFile(newPath); err != nil {
		return err
	}
	ns, err := e.st.Open(newPath, store.SegMeta{Cols: cols, Frozen: true, Encoding: store.EncDCZ, Zone: zone}, -1)
	if err != nil {
		os.Remove(newPath)
		return err
	}
	sw := store.NewSwap(opt)
	sw.Add(ns.File.Close, newPath)

	// Rewrite each branch's member logs into one log against the merged
	// segment. Member logs for one branch all end at the branch's last
	// commit (commitLocked appends to every local's log on every
	// commit), so the union over [min start, last] has no gaps and the
	// per-commit density invariant carries over.
	type logRange struct {
		start, end int // commit seqs [start, end)
	}
	ranges := make(map[vgraph.BranchID]logRange)
	for k, start := range e.startSeq {
		if !inRun[k.Seg] {
			continue
		}
		l, err := e.openLog(k)
		if err != nil {
			return err
		}
		r, ok := ranges[k.Branch]
		if !ok {
			r = logRange{start: start, end: start + l.NumCommits()}
		} else {
			if start < r.start {
				r.start = start
			}
			if end := start + l.NumCommits(); end > r.end {
				r.end = end
			}
		}
		ranges[k.Branch] = r
	}
	newLogs := make(map[vgraph.BranchID]*bitmap.CommitLog, len(ranges))
	for b, r := range ranges {
		path := e.logPath(logKey{Branch: b, Seg: newID})
		os.Remove(path) // debris from an earlier crashed merge
		nl, err := bitmap.OpenCommitLog(path, bitmap.DefaultLayerFanout)
		if err != nil {
			sw.Abort()
			return err
		}
		sw.Add(nl.Close, path)
		newLogs[b] = nl
		for seq := r.start; seq < r.end; seq++ {
			union := bitmap.New(0)
			for _, s := range run {
				k := logKey{Branch: b, Seg: s.id}
				start, ok := e.startSeq[k]
				if !ok || seq < start {
					continue
				}
				l, err := e.openLog(k)
				if err != nil {
					sw.Abort()
					return err
				}
				if seq-start >= l.NumCommits() {
					continue
				}
				bm, err := l.Checkout(seq - start)
				if err != nil {
					sw.Abort()
					return err
				}
				var ferr error
				bm.ForEach(func(slot int) bool {
					np, ok := remap[pos{Seg: s.id, Slot: int64(slot)}]
					if !ok {
						ferr = fmt.Errorf("hy: merge: committed slot %d of segment %d outside keep set", slot, s.id)
						return false
					}
					union.Set(int(np.Slot))
					return true
				})
				if ferr != nil {
					sw.Abort()
					return ferr
				}
			}
			if _, err := nl.Append(union); err != nil {
				sw.Abort()
				return err
			}
		}
		if err := nl.Sync(); err != nil {
			sw.Abort()
			return err
		}
	}
	// Build the merged in-memory segment: local bitmaps remapped, one
	// entry for every branch any member tracked (even if now empty) so
	// the commit path keeps appending to the rewritten log.
	nhs := &hseg{Segment: ns, id: newID, owner: run[0].owner, local: make(map[vgraph.BranchID]*bitmap.Bitmap)}
	for _, s := range run {
		for b, bm := range s.local {
			u := nhs.local[b]
			if u == nil {
				u = bitmap.New(0)
				nhs.local[b] = u
			}
			bm.ForEach(func(slot int) bool {
				if np, ok := remap[pos{Seg: s.id, Slot: int64(slot)}]; ok {
					u.Set(int(np.Slot))
				}
				return true
			})
		}
	}

	// Swap copy-on-write — in-flight scans hold the old slice — with the
	// merged segment at the run's first position, then persist: the
	// catalog rename is the commit point. On persist failure everything
	// reverts.
	removedSeq := make(map[logKey]int)
	err = sw.Commit(func() error {
		prevSegs := e.segs
		segs := make([]*hseg, 0, len(e.segs)-len(run)+1)
		for _, s := range e.segs {
			if inRun[s.id] {
				if s == run[0] {
					segs = append(segs, nhs)
				}
				continue
			}
			segs = append(segs, s)
		}
		e.segs = segs
		e.byID[newID] = nhs
		for _, s := range run {
			delete(e.byID, s.id)
		}
		prevNext := e.nextID
		e.nextID = newID + 1
		for k, start := range e.startSeq {
			if inRun[k.Seg] {
				removedSeq[k] = start
				delete(e.startSeq, k)
			}
		}
		for b, r := range ranges {
			e.startSeq[logKey{Branch: b, Seg: newID}] = r.start
		}
		err := e.persistLocked()
		if err != nil {
			e.segs = prevSegs
			delete(e.byID, newID)
			for _, s := range run {
				e.byID[s.id] = s
			}
			e.nextID = prevNext
			for b := range ranges {
				delete(e.startSeq, logKey{Branch: b, Seg: newID})
			}
			for k, start := range removedSeq {
				e.startSeq[k] = start
			}
		}
		return err
	})
	if err != nil {
		return err
	}

	// Committed. Point the open-log cache at the rewritten logs, move the
	// version index's positions to the merged segment, count the pass,
	// and retire the replaced files.
	var oldLogs []logKey
	for k := range removedSeq {
		if l, ok := e.logs[k]; ok {
			l.Close()
			delete(e.logs, k)
		}
		oldLogs = append(oldLogs, k)
	}
	for b, l := range newLogs {
		e.logs[logKey{Branch: b, Seg: newID}] = l
	}
	e.vers.Rewrite(func(p pos) (pos, bool) {
		if !inRun[p.Seg] {
			return p, true
		}
		// A dropped row is live in no branch and in no recorded commit:
		// nothing can make its position live again.
		np, ok := remap[p]
		return np, ok
	})
	var oldBytes int64
	for _, s := range run {
		oldBytes += s.File.DiskBytes()
	}
	st.SegmentsMerged += int64(len(run))
	st.TombstonesDropped += dropped
	st.PagesCompressed += int64(w.Pages())
	st.BytesReclaimed += oldBytes - ns.File.DiskBytes()
	return sw.Retire(func() {
		for _, s := range run {
			s.Segment.RetireAndRemove(e.segFilePath(s.id, s.Encoding))
		}
		for _, k := range oldLogs {
			os.Remove(e.logPath(k))
		}
	})
}

// compressLocked re-encodes every remaining frozen heap segment (heads
// excluded) into compressed pages. Slot numbering is preserved — the
// whole file re-encodes — so bitmaps, logs and the version index need
// no changes; only the catalog entry's encoding tag and path move.
func (e *Engine) compressLocked(opt compact.Options, st *compact.Stats) error {
	heads := make(map[segID]bool, len(e.headSeg))
	for _, id := range e.headSeg {
		heads[id] = true
	}
	var cands []store.Candidate
	var olds []*hseg
	for _, s := range e.segs {
		n := s.File.Count()
		if !s.Frozen || heads[s.id] || s.Encoding == store.EncDCZ || n == 0 {
			continue
		}
		cands = append(cands, store.Candidate{
			Seg: s.Segment, Path: e.segFilePath(s.id, s.Encoding),
			NewPath: e.segFilePath(s.id, store.EncDCZ), Count: n,
		})
		olds = append(olds, s)
	}
	return e.st.SwapCompressed(cands, opt, st, func(news []*store.Segment) error {
		prev := e.segs
		segs := append([]*hseg(nil), prev...)
		for k, old := range olds {
			nh := &hseg{Segment: news[k], id: old.id, owner: old.owner, local: old.local}
			segs[slices.Index(segs, old)] = nh
			e.byID[old.id] = nh
		}
		e.segs = segs
		err := e.persistLocked()
		if err != nil {
			e.segs = prev
			for _, old := range olds {
				e.byID[old.id] = old
			}
		}
		return err
	})
}

// sweepOrphans removes files the catalog does not reference (see
// store.SweepOrphans) and, beyond the data files, the commit logs of
// segment ids the catalog no longer knows. Called at the end of
// recover, when the referenced set is known.
func (e *Engine) sweepOrphans() {
	live := make([]*store.Segment, len(e.segs))
	for i, s := range e.segs {
		live[i] = s.Segment
	}
	store.SweepOrphans(e.env.Dir, live, "seg", ".dat")
	logDir := filepath.Join(e.env.Dir, "commits")
	ents, err := os.ReadDir(logDir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		name := ent.Name()
		var b vgraph.BranchID
		var s segID
		if n, err := fmt.Sscanf(name, "b%d_s%d.hist", &b, &s); err != nil || n != 2 {
			continue
		}
		if _, ok := e.byID[s]; !ok {
			os.Remove(filepath.Join(logDir, name))
		}
	}
}
