package decibel_test

// Compaction crash recovery: a pass killed in either crash window must
// leave a dataset that reads back byte-identical after reopen.
//
//   - after-temp: new segment files are written and fsynced but the
//     catalog swap never happened. The new files are orphans; the
//     catalog still references the old ones.
//   - before-unlink: the catalog swap committed and in-memory state
//     moved to the new files, but the replaced files were never
//     unlinked. The old files are orphans.
//
// Each window is driven through the injected fail points on every
// engine: the pass fails with the fail-point error, scans keep serving
// the same streams, and after close/reopen the orphan sweep leaves no
// temp files behind while a clean pass still completes and compacts.

import (
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"decibel"
	"decibel/internal/store"
)

func TestCompactionCrashRecovery(t *testing.T) {
	for _, engine := range facadeEngines {
		for _, point := range []string{store.FailAfterTemp, store.FailBeforeUnlink} {
			t.Run(engine+"/"+point, func(t *testing.T) {
				dir := t.TempDir()
				base := []decibel.Option{decibel.WithCompaction("manual")}
				built := buildPruningDBIn(t, dir, engine, base...)
				if err := built.Close(); err != nil {
					t.Fatal(err)
				}

				corpus := compactionCorpus(6)
				injected := buildReopen(t, dir, engine,
					append([]decibel.Option{decibel.WithCompactionFailPoint(point)}, base...)...)
				want := captureCompactionStreams(t, injected, corpus)

				if _, err := injected.Compact(); !store.ErrFailPoint(err) {
					t.Fatalf("injected pass returned %v, want a fail-point abort", err)
				}
				// Whichever window the pass died in, the in-memory state
				// it left behind still serves the same streams.
				compareCompactionStreams(t, "post-abort", captureCompactionStreams(t, injected, corpus), want)
				if err := injected.Close(); err != nil {
					t.Fatal(err)
				}

				// Reopen: recovery reads whichever catalog generation the
				// "crash" left committed and sweeps the window's orphans.
				db := buildReopen(t, dir, engine, base...)
				compareCompactionStreams(t, "reopened", captureCompactionStreams(t, db, corpus), want)
				assertNoTempFiles(t, dir)

				// A clean pass on the recovered dataset still does its
				// work (unless the aborted pass already committed it).
				st, err := db.Compact()
				if err != nil {
					t.Fatalf("clean compact after recovery: %v", err)
				}
				if point == store.FailAfterTemp && st.SegmentsCompressed == 0 {
					t.Fatalf("pass after an after-temp crash found nothing to compact: %+v", st)
				}
				compareCompactionStreams(t, "post-compaction", captureCompactionStreams(t, db, corpus), want)

				// And the compacted state survives one more reopen.
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				db2 := buildReopen(t, dir, engine, base...)
				compareCompactionStreams(t, "final reopen", captureCompactionStreams(t, db2, corpus), want)
				assertNoTempFiles(t, dir)
			})
		}
	}
}

// TestFailedCompactionCounted: a pass that swapped its files and then
// failed still reclaimed their bytes, and the process-wide counters
// say so — they move by exactly the stats the failed pass returns.
func TestFailedCompactionCounted(t *testing.T) {
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			dir := t.TempDir()
			built := buildPruningDBIn(t, dir, engine)
			if err := built.Close(); err != nil {
				t.Fatal(err)
			}
			db := buildReopen(t, dir, engine, decibel.WithCompaction("manual"),
				decibel.WithCompactionFailPoint(store.FailBeforeUnlink))
			reclaimed, pages := expvarInt(t, "decibel.bytes_reclaimed"), expvarInt(t, "decibel.compressed_pages")
			st, err := db.Compact()
			if !store.ErrFailPoint(err) || st.PagesCompressed == 0 || st.BytesReclaimed == 0 {
				t.Fatalf("injected pass returned %+v, %v; want installed segments and a fail-point abort", st, err)
			}
			if got := expvarInt(t, "decibel.bytes_reclaimed") - reclaimed; got != st.BytesReclaimed {
				t.Errorf("decibel.bytes_reclaimed moved by %d, the pass reclaimed %d", got, st.BytesReclaimed)
			}
			if got := expvarInt(t, "decibel.compressed_pages") - pages; got != st.PagesCompressed {
				t.Errorf("decibel.compressed_pages moved by %d, the pass wrote %d", got, st.PagesCompressed)
			}
		})
	}
}

// assertNoTempFiles fails if any in-flight temp file survived recovery
// anywhere under dir.
func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(d.Name(), ".tmp") {
			t.Errorf("temp file survived recovery: %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
