package store

import "os"

// The one compaction loop, Catalog.Compact: segments re-encode into the
// compressed page layout in place, slot numbering preserved, so no
// bitmap, commit log or index entry changes. The swap is crash-safe:
// the replacement files are written and fsynced in full first; the
// catalog rewrite (Save, a temp file renamed over the catalog file) is
// its commit point; the replaced files are unlinked last, each once its
// pinned readers drain. A crash before the commit point leaves the new
// files as orphans, one after it leaves the old ones; the catalog's
// orphan sweep removes either at the next open.

// CompactStats is what one compaction pass accomplished.
type CompactStats struct {
	// SegmentsCompressed counts segments re-encoded to compressed pages.
	SegmentsCompressed int64
	// PagesCompressed counts compressed pages written.
	PagesCompressed int64
	// BytesReclaimed is the net on-disk shrink: bytes of replaced
	// files minus bytes of their replacements.
	BytesReclaimed int64
}

// Add folds another pass's stats into s.
func (s *CompactStats) Add(o CompactStats) {
	s.SegmentsCompressed += o.SegmentsCompressed
	s.PagesCompressed += o.PagesCompressed
	s.BytesReclaimed += o.BytesReclaimed
}

// Fail points for crash-injection tests: a pass aborts (ErrFailPoint)
// at the named point, leaving disk in the state a crash there would.
const (
	// FailAfterTemp aborts after new segment content is written and
	// fsynced but before the catalog swap: the crash window where the
	// new files are orphans.
	FailAfterTemp = "after-temp"
	// FailBeforeUnlink completes the pass (catalog swapped, in-memory
	// state updated) but skips unlinking the replaced files: the crash
	// window where the old files are orphans.
	FailBeforeUnlink = "before-unlink"
)

type failPointError string

func (e failPointError) Error() string {
	return "store: compaction aborted at injected fail point " + string(e)
}

// ErrFailPoint reports whether err is a pass that aborted at an
// injected fail point.
func ErrFailPoint(err error) bool {
	_, ok := err.(failPointError)
	return ok
}

// Pages returns the number of compressed pages flushed so far; after
// WriteFile it is the file's final page count.
func (w *CompressedWriter) Pages() int { return len(w.index) }

// compress re-encodes segment s into a compressed .dcz file at newPath
// (written and fsynced in full) and opens it as a frozen replacement
// segment sharing s's schema-version id. The returned page count feeds
// the pass's PagesCompressed stat.
func (c *Catalog[S]) compress(s *Segment, newPath string) (*Segment, int, error) {
	w := NewCompressedWriter(s.Schema, s.File.PerPage())
	var aerr error
	err := s.File.Scan(0, s.File.Count(), func(_ int64, rec []byte) bool {
		aerr = w.Append(rec)
		return aerr == nil
	})
	if err == nil {
		err = aerr
	}
	if err != nil {
		return nil, 0, err
	}
	if err := w.WriteFile(newPath); err != nil {
		return nil, 0, err
	}
	ns, err := c.st.Open(newPath, SegMeta{Cols: s.Cols, Frozen: true, Encoding: EncDCZ, Zone: s.zone}, -1)
	if err != nil {
		os.Remove(newPath)
		return nil, 0, err
	}
	return ns, w.Pages(), nil
}

// Compact runs one compaction pass: every heap segment with rows that
// eligible accepts re-encodes into compressed pages. The replacements
// are installed in their entries under the engine's lock — in-flight
// scans keep the pinned segments they took — and put back if Save
// fails. installed, when not nil, runs for each replaced segment once
// the swap has committed.
//
// The catalog's fail point (NewCatalog) stops the pass where a crash
// would: under FailAfterTemp the new files are closed but left on disk
// and the catalog is not saved; under FailBeforeUnlink the catalog is
// saved but the replaced files are not unlinked.
func (c *Catalog[S]) Compact(eligible func(S) bool, installed func(S)) (CompactStats, error) {
	var st CompactStats
	var at []S
	var news []*Segment
	var pages int64
	// abort closes the replacements written so far and, unless a crash
	// is being simulated, removes them: the swap did not happen.
	abort := func(remove bool) {
		for _, ns := range news {
			ns.File.Close()
			if remove {
				os.Remove(ns.File.Path())
			}
		}
	}
	for _, s := range c.Segs {
		e := s.entry()
		if e.Encoding == EncDCZ || e.File.Count() == 0 || !eligible(s) {
			continue
		}
		ns, p, err := c.compress(e.Segment, c.path(e.ID, EncDCZ))
		if err != nil {
			abort(true)
			return st, err
		}
		at, news, pages = append(at, s), append(news, ns), pages+int64(p)
	}
	if len(at) == 0 {
		return st, nil
	}
	if c.failPoint == FailAfterTemp {
		abort(false)
		return st, failPointError(c.failPoint)
	}
	old := make([]Entry, len(at))
	for k, s := range at {
		e := s.entry()
		old[k] = *e
		e.Segment = news[k]
	}
	if err := c.Save(); err != nil {
		for k, s := range at {
			*s.entry() = old[k]
		}
		abort(true)
		return st, err
	}
	st.SegmentsCompressed += int64(len(at))
	st.PagesCompressed += pages
	for k, s := range at {
		st.BytesReclaimed += old[k].File.DiskBytes() - news[k].File.DiskBytes()
		if installed != nil {
			installed(s)
		}
	}
	if c.failPoint == FailBeforeUnlink {
		return st, failPointError(c.failPoint)
	}
	// Each replaced file goes when its last pinned reader drains (see
	// Segment.Retire).
	for _, o := range old {
		o.Retire(func() {
			o.File.Close()
			os.Remove(o.File.Path())
		})
	}
	return st, nil
}
