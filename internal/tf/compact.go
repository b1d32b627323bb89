package tf

import (
	"fmt"
	"path/filepath"

	"decibel/internal/compact"
	"decibel/internal/store"
)

// extFilePath returns extent i's data file: the positional default or
// its recorded rewrite name.
func (e *Engine) extFilePath(i int, name string) string {
	if name != "" {
		return filepath.Join(e.env.Dir, name)
	}
	return e.extPath(i)
}

// CompactSegments implements core.Engine for the tuple-first scheme.
// The shared heap's slot numbers are global — every bitmap, commit
// delta and the version index address them — so extents can never be
// merged or have rows dropped; the pass re-encodes sealed extents into
// compressed pages under store.SwapCompressed's crash-safe protocol
// (the extent-table rename is its commit point), preserving slot
// numbering exactly. Rows past an extent's sealed count (torn appends
// no global slot maps into) are not carried over.
func (e *Engine) CompactSegments(opt compact.Options) (compact.Stats, error) {
	var st compact.Stats
	e.mu.Lock()
	defer e.mu.Unlock()
	var cands []store.Candidate
	var at []int // extent index per candidate
	for i := 0; i < len(e.exts)-1; i++ {
		x := e.exts[i]
		count := e.exts[i+1].base - x.base
		if x.Encoding == store.EncDCZ || count == 0 {
			continue
		}
		cands = append(cands, store.Candidate{
			Seg: x.Segment, Path: e.extFilePath(i, x.name),
			NewPath: filepath.Join(e.env.Dir, fmt.Sprintf("data.e%d.dcz", i)), Count: count,
		})
		at = append(at, i)
	}
	err := e.st.SwapCompressed(cands, opt, &st, func(news []*store.Segment) error {
		prev := e.exts
		exts := append([]*extent(nil), prev...)
		for k, ns := range news {
			if err := ns.EnablePageZones(); err != nil {
				return err
			}
			exts[at[k]] = &extent{Segment: ns, base: prev[at[k]].base, name: filepath.Base(cands[k].NewPath)}
		}
		e.exts = exts
		err := e.persistExtentsLocked()
		if err != nil {
			e.exts = prev
		}
		return err
	})
	return st, err
}

// sweepOrphans removes heap data files the extent table does not
// reference (see store.SweepOrphans). Called once the extent table is
// loaded.
func (e *Engine) sweepOrphans() {
	live := make([]*store.Segment, len(e.exts))
	for i, x := range e.exts {
		live[i] = x.Segment
	}
	store.SweepOrphans(e.env.Dir, live, "data", ".heap")
}
