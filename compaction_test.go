package decibel_test

// Compaction equivalence: a compaction pass — re-encoding frozen
// segments into compressed pages in place — must be invisible to every
// reader.
// For each engine the pruning dataset (multiple segments across schema
// epochs, branches, deletes and a merge) is scanned across every query
// shape and the pruning predicate corpus before a pass, after it, and
// after a close/reopen of the compacted dataset; all three streams must
// be byte-identical in emission order. The test also asserts the pass
// did real work (stats non-zero, on-disk bytes shrank) and that a
// second pass finds nothing left to do.

import (
	"fmt"
	"math/rand"
	"testing"

	"decibel"
	iquery "decibel/internal/query"
)

// compactionShapes is the query-shape battery the compaction streams
// are captured over: branch heads, historical commits, multi-branch
// and diff.
func compactionShapes(where iquery.Expr) []struct {
	plan  iquery.Plan
	shape string
} {
	return []struct {
		plan  iquery.Plan
		shape string
	}{
		{iquery.Plan{Table: "r", Branches: []string{"master"}, AtSeq: -1, Where: where}, "scan"},
		{iquery.Plan{Table: "r", Branches: []string{"b1"}, AtSeq: -1, Where: where}, "scan"},
		{iquery.Plan{Table: "r", Branches: []string{"b2"}, AtSeq: -1, Where: where}, "scan"},
		{iquery.Plan{Table: "r", Branches: []string{"master"}, AtSeq: 0, Where: where}, "scan"},
		{iquery.Plan{Table: "r", Branches: []string{"master"}, AtSeq: 1, Where: where}, "scan"},
		{iquery.Plan{Table: "r", Branches: []string{"master"}, AtSeq: 2, Where: where}, "scan"},
		{iquery.Plan{Table: "r", Branches: []string{"master"}, AtSeq: 3, Where: where}, "scan"},
		{iquery.Plan{Table: "r", AllHeads: true, AtSeq: -1, Where: where}, "multi"},
		{iquery.Plan{Table: "r", Branches: []string{"master", "b1"}, AtSeq: -1, Where: where}, "diff"},
		{iquery.Plan{Table: "r", Branches: []string{"b2", "master"}, AtSeq: -1, Where: where}, "diff"},
	}
}

// compactionCorpus returns the predicate corpus: the fixed pruning
// edges plus deterministic random predicate trees.
func compactionCorpus(extra int) []iquery.Expr {
	corpus := []iquery.Expr{
		{}, // match-all: the widest streams
		iquery.Col("price").Lt(7.5),
		iquery.Col("price").Eq(7.5),
		iquery.Col("price").Ge(7.5),
		iquery.Col("sku").HasPrefix("c"),
		iquery.Col("v").Ge(120).And(iquery.Col("sku").HasPrefix("b")),
	}
	rng := rand.New(rand.NewSource(0xc0dec0de))
	for i := 0; i < extra; i++ {
		corpus = append(corpus, randExpr(rng, 2))
	}
	return corpus
}

// captureCompactionStreams runs the full shape × predicate battery and
// returns every stream, labeled, in emission order.
func captureCompactionStreams(t *testing.T, db *decibel.DB, corpus []iquery.Expr) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	for i, where := range corpus {
		for j, sh := range compactionShapes(where) {
			label := fmt.Sprintf("pred[%d] shape[%d:%s]", i, j, sh.shape)
			rows, err := collectShape(db, sh.plan, sh.shape)
			if err != nil {
				// Plan-time errors (a predicate naming a column the
				// addressed epoch lacks) are part of the stream: they
				// must reproduce identically after compaction too.
				rows = []string{"ERR: " + err.Error()}
			}
			out[label] = rows
		}
	}
	return out
}

// compareCompactionStreams asserts got matches want stream for stream,
// row for row, in emission order.
func compareCompactionStreams(t *testing.T, phase string, got, want map[string][]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d streams, want %d", phase, len(got), len(want))
	}
	for label, w := range want {
		g, ok := got[label]
		if !ok {
			t.Fatalf("%s: stream %s missing", phase, label)
		}
		if len(g) != len(w) {
			t.Fatalf("%s: %s: %d rows, want %d", phase, label, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: %s: row %d: %q, want %q", phase, label, i, g[i], w[i])
			}
		}
	}
}

// diskBytes sums the on-disk footprint of every segment of table r.
func diskBytes(t *testing.T, db *decibel.DB) int64 {
	t.Helper()
	tbl, err := db.TableByName("r")
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, st := range tbl.SegmentStats() {
		total += st.DiskBytes
	}
	return total
}

func TestCompactionScanEquivalence(t *testing.T) {
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			dir := t.TempDir()
			opts := []decibel.Option{decibel.WithCompaction("manual")}
			// Build, then cycle through a close/reopen so every segment
			// is flushed and its on-disk footprint measurable — the state
			// a deployed dataset compacts from.
			built := buildPruningDBIn(t, dir, engine, opts...)
			if err := built.Close(); err != nil {
				t.Fatal(err)
			}
			db := buildReopen(t, dir, engine, opts...)
			corpus := compactionCorpus(20)
			before := captureCompactionStreams(t, db, corpus)
			sizeBefore := diskBytes(t, db)

			st, err := db.Compact()
			if err != nil {
				t.Fatalf("compact: %v", err)
			}
			if st.SegmentsCompressed == 0 {
				t.Fatalf("compaction did nothing: %+v", st)
			}
			if st.PagesCompressed == 0 {
				t.Fatalf("no compressed pages written: %+v", st)
			}

			after := captureCompactionStreams(t, db, corpus)
			compareCompactionStreams(t, "post-compaction", after, before)
			if sizeAfter := diskBytes(t, db); sizeAfter >= sizeBefore {
				t.Fatalf("disk bytes did not shrink: %d -> %d", sizeBefore, sizeAfter)
			}

			// A second pass finds everything already encoded.
			st2, err := db.Compact()
			if err != nil {
				t.Fatalf("second compact: %v", err)
			}
			if st2 != (decibel.CompactionStats{}) {
				t.Fatalf("second pass was not a no-op: %+v", st2)
			}

			// The compacted catalog survives a close/reopen bit-for-bit.
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2 := buildReopen(t, dir, engine, opts...)
			reopened := captureCompactionStreams(t, db2, corpus)
			compareCompactionStreams(t, "reopened", reopened, before)
		})
	}
}

// buildReopen reopens an existing dataset directory.
func buildReopen(t *testing.T, dir, engine string, opts ...decibel.Option) *decibel.DB {
	t.Helper()
	db, err := decibel.Open(dir, append([]decibel.Option{decibel.WithEngine(engine)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestCompactNeedsNoOption: Compact runs a pass on a dataset opened
// without WithCompaction. A hybrid branch freezes master's head
// segment, which the pass then compresses.
func TestCompactNeedsNoOption(t *testing.T) {
	db, _, _ := openSeeded(t, "hybrid")
	defer db.Close()
	if _, err := db.Branch("master", "dev"); err != nil {
		t.Fatal(err)
	}
	st, err := db.Compact()
	if err != nil || st.SegmentsCompressed == 0 {
		t.Fatalf("Compact without the option: %+v, %v; want a compressed segment", st, err)
	}
}
