package store

import (
	"os"
	"path/filepath"
	"strings"

	"decibel/internal/compact"
)

// Compaction mechanics shared by the three engines' passes: re-encoding
// a frozen segment into the compressed page layout, the crash-safe
// protocol that swaps replacement files into an engine's catalog, and
// the orphan sweep that cleans up after a pass that died half way.
//
// The protocol (Swap): replacement files are written and fsynced in
// full first; the engine's catalog rewrite — a temp file renamed over
// the catalog — is the commit point; the replaced files are unlinked
// last, each once its pinned readers drain. A crash before the commit
// point leaves the new files as orphans, one after it leaves the old
// ones; SweepOrphans removes either at the next open.

// Pages returns the number of compressed pages flushed so far; after
// WriteFile it is the file's final page count.
func (w *CompressedWriter) Pages() int { return len(w.index) }

// CompressSegment re-encodes the first count rows of segment s into a
// compressed .dcz file at newPath (written and fsynced in full) and
// opens it as a frozen replacement segment sharing s's schema-version
// id. count normally equals s.File.Count(); tuple-first passes the
// sealed extent length, dropping rows past the seal that no global
// slot can address. The returned page count feeds the pass's
// PagesCompressed stat. The caller is responsible for swapping the
// replacement into its catalog and retiring s.
func (st *Store) CompressSegment(s *Segment, newPath string, count int64) (*Segment, int, error) {
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

// RetireAndRemove schedules the segment's cleanup — close its file and
// remove path — for when the last pinned reader drains (immediately
// when nothing is pinned). See Segment.Retire for the pinning protocol.
func (s *Segment) RetireAndRemove(path string) {
	s.Retire(func() {
		s.File.Close()
		os.Remove(path)
	})
}

// Swap tracks the replacement files of one catalog swap and runs the
// protocol's fail points. The engine registers each new file as soon as
// it is written (Add), aborts on any error before the commit point
// (Abort), commits, and finally retires what it replaced.
type Swap struct {
	failPoint string
	files     []swapFile
}

type swapFile struct {
	close func() error
	path  string
}

// NewSwap starts a swap under the pass's options (whose FailPoint the
// protocol honours).
func NewSwap(opt compact.Options) *Swap { return &Swap{failPoint: opt.FailPoint} }

// Add registers a replacement file already written to path.
func (sw *Swap) Add(close func() error, path string) {
	sw.files = append(sw.files, swapFile{close, path})
}

// Abort closes and removes every registered file: the swap did not
// happen.
func (sw *Swap) Abort() {
	for _, f := range sw.files {
		f.close()
		os.Remove(f.path)
	}
}

// Commit runs the commit point. commit must install the replacements
// in the engine's in-memory tables copy-on-write (in-flight scans hold
// the old ones and pinned the segments they read) and persist the
// catalog, undoing its in-memory change if persisting fails; on that
// error the new files are removed. Under FailAfterTemp the new files
// are closed but left on disk — the state a crash before the commit
// point leaves — and commit never runs.
func (sw *Swap) Commit(commit func() error) error {
	if sw.failPoint == compact.FailAfterTemp {
		for _, f := range sw.files {
			f.close()
		}
		return compact.FailPointErr(sw.failPoint)
	}
	if err := commit(); err != nil {
		sw.Abort()
		return err
	}
	return nil
}

// Retire runs after a successful Commit: retire unlinks what the swap
// replaced (segments via RetireAndRemove, so pinned readers drain
// first). Under FailBeforeUnlink it does not run — the state a crash
// after the commit point leaves.
func (sw *Swap) Retire(retire func()) error {
	if sw.failPoint == compact.FailBeforeUnlink {
		return compact.FailPointErr(sw.failPoint)
	}
	retire()
	return nil
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
// swaps the replacements in under the Swap protocol. commit receives
// the replacement segments, index-aligned with cands, and has Commit's
// contract. Completed swaps are counted into stats.
func (st *Store) SwapCompressed(cands []Candidate, opt compact.Options, stats *compact.Stats, commit func(news []*Segment) error) error {
	if len(cands) == 0 {
		return nil
	}
	sw := NewSwap(opt)
	news := make([]*Segment, len(cands))
	var pages int64
	for i, c := range cands {
		ns, p, err := st.CompressSegment(c.Seg, c.NewPath, c.Count)
		if err != nil {
			sw.Abort()
			return err
		}
		sw.Add(ns.File.Close, c.NewPath)
		news[i] = ns
		pages += int64(p)
	}
	if err := sw.Commit(func() error { return commit(news) }); err != nil {
		return err
	}
	stats.SegmentsCompressed += int64(len(cands))
	stats.PagesCompressed += pages
	for i, c := range cands {
		stats.BytesReclaimed += c.Seg.File.DiskBytes() - news[i].File.DiskBytes()
	}
	return sw.Retire(func() {
		for _, c := range cands {
			c.Seg.RetireAndRemove(c.Path)
		}
	})
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
