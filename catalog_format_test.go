package decibel_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"decibel"
)

// Closing a dataset rewrites each engine's segment catalog
// (extents.json, segments.json). Its format is fixed: the rewrite of a
// catalog written by an older build is, byte for byte, the file it
// read — same keys, same key order, same zone maps.
func TestCatalogRoundTripsByteIdentical(t *testing.T) {
	for _, tc := range []struct{ fixture, engine, file string }{
		{"pre_graphlog/tf", "tf", "extents.json"},
		{"pre_graphlog/hy", "hy", "segments.json"},
		{"pre_graphlog/vf", "vf", "segments.json"},
		{"merged_hy/hy", "hy", "segments.json"},
	} {
		t.Run(tc.fixture, func(t *testing.T) {
			src := filepath.Join("testdata", filepath.FromSlash(tc.fixture))
			dir := t.TempDir()
			copyTree(t, src, dir)
			db, err := decibel.Open(dir, decibel.WithEngine(tc.engine), decibel.WithPageSize(512))
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(src, "tables", "r", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, "tables", "r", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s after a round trip (%d bytes):\n%s\nwant (%d bytes):\n%s", tc.file, len(got), got, len(want), want)
			}
		})
	}
}
