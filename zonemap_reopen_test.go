package decibel_test

// Zone-map persistence: maps must survive close/reopen through the
// engines' catalogs, be rebuilt transparently for directories whose
// catalogs predate them (legacy format), and keep pruned scans correct
// either way.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"decibel"
	iquery "decibel/internal/query"
	"decibel/internal/record"
)

// segmentZoned reports whether any segment stat carries a non-empty
// zone (min/max rendered, i.e. not "-").
func segmentZoned(stats []decibel.SegmentStat) bool {
	for _, sg := range stats {
		for _, z := range sg.Zones {
			if z.Min != "-" {
				return true
			}
		}
	}
	return false
}

// scanWhere runs a pruned single-branch scan and returns the row count.
func scanWhere(t *testing.T, db *decibel.DB, where iquery.Expr) int {
	t.Helper()
	c, err := iquery.Plan{Table: "r", Branches: []string{"master"}, AtSeq: -1, Where: where}.Compile(db.Database)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := c.Scan(context.Background(), func(*record.Record) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestZoneMapsSurviveReopen(t *testing.T) {
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			dir := t.TempDir()
			func() {
				db := buildPruningDBAt(t, dir, engine)
				defer db.Close()
				if !segmentZoned(tableStats(t, db)) {
					t.Fatal("no zones before close")
				}
			}()

			db, err := decibel.Open(dir, decibel.WithEngine(engine))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if !segmentZoned(tableStats(t, db)) {
				t.Fatal("zones lost across reopen")
			}
			// Pruned scans stay correct, and pruning engages on the
			// reopened dataset (the maps came back usable, persisted or
			// rebuilt).
			skippedBefore := expvarInt(t, "decibel.segments_skipped")
			if got := scanWhere(t, db, iquery.Col("v").Ge(100)); got != 50 {
				t.Fatalf("v>=100 after reopen = %d rows, want 50", got)
			}
			if got := scanWhere(t, db, iquery.Col("v").Lt(10)); got != 10 {
				t.Fatalf("v<10 after reopen = %d rows, want 10", got)
			}
			if skippedAfter := expvarInt(t, "decibel.segments_skipped"); skippedAfter == skippedBefore && engine != "tuple-first" {
				// tf keeps one extent per schema epoch, so a two-extent heap
				// may legitimately have nothing to skip for one predicate;
				// segment-per-branch engines must skip here.
				t.Fatal("no segment skipped after reopen")
			}
		})
	}
}

// TestZoneMapsLegacyRebuild strips the persisted zone maps from the
// engine catalogs — simulating a directory written before zone maps
// existed — and verifies reopen rebuilds them from the heap files.
func TestZoneMapsLegacyRebuild(t *testing.T) {
	for _, engine := range facadeEngines {
		t.Run(engine, func(t *testing.T) {
			dir := t.TempDir()
			func() {
				db := buildPruningDBAt(t, dir, engine)
				defer db.Close()
			}()

			stripped := 0
			matches, err := filepath.Glob(filepath.Join(dir, "tables", "*", "segments.json"))
			if err != nil {
				t.Fatal(err)
			}
			for _, path := range matches {
				stripped += stripZones(t, path)
			}
			if stripped == 0 {
				t.Fatal("no zone entries found to strip — persistence broken?")
			}

			db, err := decibel.Open(dir, decibel.WithEngine(engine))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if !segmentZoned(tableStats(t, db)) {
				t.Fatal("zones not rebuilt for the legacy directory")
			}
			if got := scanWhere(t, db, iquery.Col("v").Ge(100)); got != 50 {
				t.Fatalf("v>=100 after legacy rebuild = %d rows, want 50", got)
			}
		})
	}
}

// stripZones removes every "zone" key from a JSON catalog, returning
// how many it removed.
func stripZones(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	n := 0
	var walk func(v any)
	walk = func(v any) {
		switch x := v.(type) {
		case map[string]any:
			if _, ok := x["zone"]; ok {
				delete(x, "zone")
				n++
			}
			for _, child := range x {
				walk(child)
			}
		case []any:
			for _, child := range x {
				walk(child)
			}
		}
	}
	walk(doc)
	if n == 0 {
		return 0
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	return n
}

func tableStats(t *testing.T, db *decibel.DB) []decibel.SegmentStat {
	t.Helper()
	tbl, err := db.TableByName("r")
	if err != nil {
		t.Fatal(err)
	}
	stats := tbl.SegmentStats()
	if len(stats) == 0 {
		t.Fatal("engine reports no segment stats")
	}
	return stats
}

// buildPruningDBAt is buildPruningDB into a caller-owned directory
// (for close/reopen tests).
func buildPruningDBAt(t *testing.T, dir, engine string) *decibel.DB {
	t.Helper()
	db, err := decibel.Open(dir, decibel.WithEngine(engine))
	if err != nil {
		t.Fatal(err)
	}
	base := decibel.NewSchema().Int64("id").Int64("v").Bytes("sku", 8).MustBuild()
	if _, err := db.CreateTable("r", base); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Init("init"); err != nil {
		t.Fatal(err)
	}
	load := func(branch string, s *decibel.Schema, lo, hi int64, tag byte) {
		t.Helper()
		if _, err := db.Commit(branch, func(tx *decibel.Tx) error {
			recs := make([]*decibel.Record, 0, hi-lo)
			for pk := lo; pk < hi; pk++ {
				rec := decibel.NewRecord(s)
				rec.SetPK(pk)
				rec.Set(1, pk)
				if err := rec.SetBytes(2, []byte(fmt.Sprintf("%c%03d", tag, pk))); err != nil {
					return err
				}
				if i := s.ColumnIndex("price"); i >= 0 {
					rec.SetFloat64(i, float64(pk))
				}
				recs = append(recs, rec)
			}
			return tx.InsertBatch("r", recs)
		}); err != nil {
			t.Fatal(err)
		}
	}
	load("master", base, 0, 50, 'a')
	if _, err := db.Branch("master", "b1"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Commit("master", func(tx *decibel.Tx) error {
		return tx.AddColumn("r", decibel.Column{Name: "price", Type: decibel.Float64}, decibel.Default(7.5))
	}); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.TableByName("r")
	if err != nil {
		t.Fatal(err)
	}
	load("master", tbl.Schema(), 50, 100, 'b')
	if _, err := db.Branch("master", "b2"); err != nil {
		t.Fatal(err)
	}
	load("master", tbl.Schema(), 100, 150, 'c')
	return db
}
