package hy

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

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

// CompactSegments implements core.Engine for the hybrid scheme: every
// frozen heap segment (heads excluded) re-encodes into compressed pages
// under store.SwapCompressed's crash-safe protocol (the catalog rename
// in persistLocked is its commit point). Slot numbering is preserved —
// the whole file re-encodes — so bitmaps, logs and the version index
// need no changes; only the catalog entry's encoding tag and path move.
func (e *Engine) CompactSegments(opt compact.Options) (compact.Stats, error) {
	var st compact.Stats
	e.mu.Lock()
	defer e.mu.Unlock()
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
	err := e.st.SwapCompressed(cands, opt, &st, func(news []*store.Segment) error {
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
	return st, err
}

// sweepOrphans removes files the catalog does not reference (see
// store.SweepOrphans) and, beyond the data files, the commit logs of
// segment ids the catalog no longer knows. Called at the end of
// recover, when the referenced set is known. The log sweep still
// matters for datasets from before merge compaction was removed: a
// merge that crashed before its catalog rename left logs under the id
// the next new segment takes, which would otherwise open stale
// liveness.
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
