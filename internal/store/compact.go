package store

import (
	"os"
	"path/filepath"
	"strings"

	"decibel/internal/compact"
)

// Compaction mechanics shared by the three engines' passes: re-encoding
// a frozen segment into the compressed page layout, the crash-safe swap
// of the replacements into an engine's catalog (SwapCompressed), and
// the orphan sweep that cleans up after a pass that died half way. The
// engine's catalog rewrite — a temp file renamed over the catalog — is
// the swap's commit point. A crash before it leaves the new files as
// orphans, one after it leaves the old ones; SweepOrphans removes
// either at the next open.

// Pages returns the number of compressed pages flushed so far; after
// WriteFile it is the file's final page count.
func (w *CompressedWriter) Pages() int { return len(w.index) }

// compressSegment re-encodes the first count rows of segment s into a
// compressed .dcz file at newPath (written and fsynced in full) and
// opens it as a frozen replacement segment sharing s's schema-version
// id. count normally equals s.File.Count(); tuple-first passes the
// sealed extent length, dropping rows past the seal that no global
// slot can address. The returned page count feeds the pass's
// PagesCompressed stat.
func (st *Store) compressSegment(s *Segment, newPath string, count int64) (*Segment, int, error) {
	w := NewCompressedWriter(s.Schema, s.File.PerPage())
	var aerr error
	err := s.File.Scan(0, count, func(_ int64, rec []byte) bool {
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
	ns, err := st.Open(newPath, SegMeta{Cols: s.Cols, Frozen: true, Encoding: EncDCZ, Zone: s.zone}, -1)
	if err != nil {
		os.Remove(newPath)
		return nil, 0, err
	}
	return ns, w.Pages(), nil
}

// Candidate names one frozen segment to re-encode in place: Path is its
// current data file, NewPath where the compressed replacement goes and
// Count the rows to carry over.
type Candidate struct {
	Seg     *Segment
	Path    string
	NewPath string
	Count   int64
}

// SwapCompressed re-encodes every candidate into compressed pages —
// slot numbering preserved, so no bitmap, log or index changes — and
// swaps the replacements into the engine's catalog. It is the only
// crash-safe swap: the replacement files are written and fsynced in
// full first; commit is the commit point; the replaced files are
// unlinked last, each once its pinned readers drain.
//
// commit receives the replacement segments, index-aligned with cands.
// It must install them in the engine's in-memory tables copy-on-write
// (in-flight scans hold the old ones and pinned the segments they
// read) and persist the catalog, undoing its in-memory change if
// persisting fails; on that error the new files are removed. Completed
// swaps are counted into stats.
//
// opt.FailPoint stops the swap where a crash would: under
// FailAfterTemp the new files are closed but left on disk and commit
// never runs; under FailBeforeUnlink commit has run but the replaced
// files are not unlinked.
func (st *Store) SwapCompressed(cands []Candidate, opt compact.Options, stats *compact.Stats, commit func(news []*Segment) error) error {
	if len(cands) == 0 {
		return nil
	}
	news := make([]*Segment, 0, len(cands))
	// abort closes the replacements written so far and, unless a crash
	// is being simulated, removes them: the swap did not happen.
	abort := func(remove bool) {
		for i, ns := range news {
			ns.File.Close()
			if remove {
				os.Remove(cands[i].NewPath)
			}
		}
	}
	var pages int64
	for _, c := range cands {
		ns, p, err := st.compressSegment(c.Seg, c.NewPath, c.Count)
		if err != nil {
			abort(true)
			return err
		}
		news = append(news, ns)
		pages += int64(p)
	}
	if opt.FailPoint == compact.FailAfterTemp {
		abort(false)
		return compact.FailPointErr(opt.FailPoint)
	}
	if err := commit(news); err != nil {
		abort(true)
		return err
	}
	stats.SegmentsCompressed += int64(len(cands))
	stats.PagesCompressed += pages
	for i, c := range cands {
		stats.BytesReclaimed += c.Seg.File.DiskBytes() - news[i].File.DiskBytes()
	}
	if opt.FailPoint == compact.FailBeforeUnlink {
		return compact.FailPointErr(opt.FailPoint)
	}
	// Each replaced file goes when its last pinned reader drains (see
	// Segment.Retire).
	for _, c := range cands {
		c.Seg.Retire(func() {
			c.Seg.File.Close()
			os.Remove(c.Path)
		})
	}
	return nil
}

// SweepOrphans removes from an engine's directory the data files its
// catalog does not reference — debris of a compaction (or crash) that
// wrote replacement files without committing, or committed without
// unlinking — plus stale catalog temp files. live is every segment the
// loaded catalog references; data files are recognised by the engine's
// name prefix and heap-file suffix (compressed ones end in .dcz on
// every engine). Called once the catalog is loaded.
func SweepOrphans(dir string, live []*Segment, prefix, heapSuffix string) {
	keep := make(map[string]bool, len(live))
	for _, s := range live {
		keep[filepath.Base(s.File.Path())] = true
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || keep[name] {
			continue
		}
		dataFile := strings.HasPrefix(name, prefix) &&
			(strings.HasSuffix(name, heapSuffix) || strings.HasSuffix(name, ".dcz"))
		if dataFile || strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name))
		}
	}
}
