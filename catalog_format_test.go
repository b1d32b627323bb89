package decibel_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"decibel"
)

// Closing a dataset rewrites each engine's segment catalog
// (segments.json). Its format is fixed: the rewrite of a
// catalog this format's writers wrote is, byte for byte, the file it
// read — same keys, same key order, same zone maps — and the dataset's
// catalog.json, which only CreateTable and schema changes write, stays
// as it was.
func TestCatalogRoundTripsByteIdentical(t *testing.T) {
	for _, engine := range format2Engines {
		t.Run("format2/"+engine, func(t *testing.T) {
			src := filepath.Join("testdata", "format2", engine)
			dir := t.TempDir()
			copyTree(t, src, dir)
			db, err := decibel.Open(dir, decibel.WithEngine(engine), decibel.WithPageSize(512))
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			for _, file := range []string{filepath.Join("tables", "r", "segments.json"), "catalog.json"} {
				want, err := os.ReadFile(filepath.Join(src, file))
				if err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(filepath.Join(dir, file))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s after a round trip (%d bytes):\n%s\nwant (%d bytes):\n%s", file, len(got), got, len(want), want)
				}
			}
		})
	}

	// A hybrid catalog this session's pass rewrote — a commit over the
	// fixture's .dcz segments, a branch freezing it, a pass re-encoding
	// it — round-trips too.
	t.Run("compacted/hy", func(t *testing.T) {
		dir := t.TempDir()
		copyTree(t, filepath.Join("testdata", "format2", "hy"), dir)
		db := format2Open(t, dir, "hy")
		format2Put(t, db, "master", []int64{9, 90, 99})
		if _, err := db.Branch("master", "next"); err != nil {
			t.Fatal(err)
		}
		if st, err := db.Compact(); err != nil || st.SegmentsCompressed == 0 {
			t.Fatalf("the pass: %+v, %v", st, err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		file := filepath.Join(dir, "tables", "r", "segments.json")
		want := readFile(t, file)
		if bytes.Equal(want, readFile(t, filepath.Join("testdata", "format2", "hy", "tables", "r", "segments.json"))) {
			t.Fatal("the commit and the pass left segments.json as the fixture's")
		}
		db = format2Open(t, dir, "hy")
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if got := readFile(t, file); !bytes.Equal(got, want) {
			t.Fatalf("segments.json after a round trip (%d bytes):\n%s\nwant (%d bytes):\n%s", len(got), got, len(want), want)
		}
	})
}
