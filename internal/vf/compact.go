package vf

import (
	"fmt"
	"path/filepath"

	"decibel/internal/compact"
	"decibel/internal/store"
)

// segFilePath returns the data file of a segment under the given
// encoding: seg<id>.dat for heap files (the legacy name, so existing
// datasets open unchanged), seg<id>.dcz for compressed ones. The
// encoding travels in the catalog (store.SegMeta.Encoding), so recover
// derives the path the same way.
func (e *Engine) segFilePath(id segID, enc string) string {
	if enc == store.EncDCZ {
		return filepath.Join(e.env.Dir, fmt.Sprintf("seg%d.dcz", id))
	}
	return e.segPath(id)
}

// safeCountsLocked computes each segment's safe count — the highest
// slot any commit, branch/merge link or override references. Appends
// beyond it are uncommitted and roll back on reopen; compaction may
// only touch segments whose whole file is safe. Caller holds e.mu.
func (e *Engine) safeCountsLocked() map[segID]int64 {
	safe := make(map[segID]int64, len(e.segs))
	for _, p := range e.commits {
		if p.Slot > safe[p.Seg] {
			safe[p.Seg] = p.Slot
		}
	}
	for _, s := range e.segs {
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

// CompactSegments implements core.Engine for the version-first scheme.
// Segment files ARE the version history here — a parent segment's byte
// ranges are addressed by child branch points and commit offsets — so
// slots can never be renumbered and physical merging is off the table;
// the pass is compression-only, under store.SwapCompressed's crash-safe
// protocol (the tmp+rename in persistLocked is its commit point). A
// segment qualifies when it is no branch's head (it will never take
// another append), every row in it is committed (count == safe count)
// and it is not already compressed.
func (e *Engine) CompactSegments(opt compact.Options) (compact.Stats, error) {
	var st compact.Stats
	e.mu.Lock()
	defer e.mu.Unlock()

	heads := e.headsLocked()
	safe := e.safeCountsLocked()
	var cands []store.Candidate
	var olds []*segment
	for _, s := range e.segs {
		n := s.File.Count()
		if heads[s.id] || s.Encoding == store.EncDCZ || n == 0 || n != safe[s.id] {
			continue
		}
		cands = append(cands, store.Candidate{
			Seg: s.Segment, Path: e.segFilePath(s.id, s.Encoding),
			NewPath: e.segFilePath(s.id, store.EncDCZ), Count: n,
		})
		olds = append(olds, s)
	}
	err := e.st.SwapCompressed(cands, opt, &st, func(news []*store.Segment) error {
		prev := e.segs
		segs := append([]*segment(nil), prev...)
		for k, old := range olds {
			segs[old.id] = &segment{
				Segment: news[k], id: old.id, branch: old.branch,
				hasLink: old.hasLink, link: old.link, overrides: old.overrides,
			}
		}
		e.segs = segs
		if err := e.persistLocked(); err != nil {
			e.segs = prev
			return err
		}
		// Compression preserves slot numbering, so cached resolutions
		// pointing into replaced segments would stay readable; drop the
		// entries rooted at them anyway so the cache's validity never
		// depends on the re-encoder's internals. Interval tables keyed on
		// the replaced segments are dropped for the same reason.
		for _, old := range olds {
			e.invalidateResolvedLocked(old.id)
			e.invalidateSeg(old.id)
		}
		return nil
	})
	return st, err
}

// sweepOrphans removes segment data files the catalog does not
// reference (see store.SweepOrphans). Called at the end of recover,
// when the referenced set is known.
func (e *Engine) sweepOrphans() {
	live := make([]*store.Segment, len(e.segs))
	for i, s := range e.segs {
		live[i] = s.Segment
	}
	store.SweepOrphans(e.env.Dir, live, "seg", ".dat")
}
