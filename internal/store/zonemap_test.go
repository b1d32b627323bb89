package store

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"testing"

	"decibel/internal/heap"
	"decibel/internal/record"
)

func testSchema(t *testing.T) *record.Schema {
	t.Helper()
	return record.MustSchema(
		record.Column{Name: "id", Type: record.Int64},
		record.Column{Name: "v", Type: record.Int32},
		record.Column{Name: "price", Type: record.Float64},
		record.Column{Name: "sku", Type: record.Bytes, Size: 16},
	)
}

func mkRec(t *testing.T, s *record.Schema, pk int64, v int64, price float64, sku string) *record.Record {
	t.Helper()
	r := record.New(s)
	r.SetPK(pk)
	r.Set(1, v)
	r.SetFloat64(2, price)
	if err := r.SetBytes(3, []byte(sku)); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestZoneMapObserve(t *testing.T) {
	s := testSchema(t)
	z := NewZoneMap(s.NumColumns())
	z.Update(s, mkRec(t, s, 5, -3, 2.5, "melon").Bytes())
	z.Update(s, mkRec(t, s, 9, 12, -1.5, "apple").Bytes())

	id, _ := z.Col(0)
	if id.MinI != 5 || id.MaxI != 9 {
		t.Fatalf("id zone [%d,%d]", id.MinI, id.MaxI)
	}
	v, _ := z.Col(1)
	if v.MinI != -3 || v.MaxI != 12 {
		t.Fatalf("v zone [%d,%d]", v.MinI, v.MaxI)
	}
	p, _ := z.Col(2)
	if p.MinF != -1.5 || p.MaxF != 2.5 {
		t.Fatalf("price zone [%g,%g]", p.MinF, p.MaxF)
	}
	sku, _ := z.Col(3)
	if string(sku.MinB) != "apple" || string(sku.MaxB) != "melon" || sku.MaxBTrunc {
		t.Fatalf("sku zone [%q,%q] trunc=%v", sku.MinB, sku.MaxB, sku.MaxBTrunc)
	}
	if z.Rows() != 2 {
		t.Fatalf("rows = %d", z.Rows())
	}
}

func TestZoneMapTombstonesExcluded(t *testing.T) {
	s := testSchema(t)
	z := NewZoneMap(s.NumColumns())
	tomb := record.New(s)
	tomb.SetPK(1)
	tomb.SetTombstone(true)
	z.Update(s, tomb.Bytes())
	if z.Rows() != 1 {
		t.Fatalf("rows = %d", z.Rows())
	}
	cz, _ := z.Col(1)
	if !cz.Empty {
		t.Fatal("tombstone leaked into the zone")
	}
}

func TestZoneMapFloatSpecials(t *testing.T) {
	s := testSchema(t)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		z := NewZoneMap(s.NumColumns())
		z.Update(s, mkRec(t, s, 1, 1, bad, "x").Bytes())
		cz, _ := z.Col(2)
		if !cz.Unbounded {
			t.Fatalf("%v did not disable pruning", bad)
		}
		// And the map still marshals.
		if _, err := json.Marshal(z); err != nil {
			t.Fatalf("marshal after %v: %v", bad, err)
		}
	}
}

func TestZoneMapBytesTruncation(t *testing.T) {
	s := testSchema(t)
	z := NewZoneMap(s.NumColumns())
	long := "zzzzzzzzzz-long" // > zonePrefixLen
	z.Update(s, mkRec(t, s, 1, 1, 0, long).Bytes())
	cz, _ := z.Col(3)
	if len(cz.MaxB) != zonePrefixLen || !cz.MaxBTrunc {
		t.Fatalf("max = %q trunc=%v", cz.MaxB, cz.MaxBTrunc)
	}
	ub, excl, ok := cz.BytesUpper()
	if !ok || !excl {
		t.Fatalf("BytesUpper = %q excl=%v ok=%v", ub, excl, ok)
	}
	if !bytes.Equal(ub, []byte("zzzzzzz{")) { // succ of the 8-byte prefix
		t.Fatalf("upper bound = %q", ub)
	}
	// The truncated prefix itself is still a valid lower bound.
	if string(cz.MinB) != long[:zonePrefixLen] {
		t.Fatalf("min = %q", cz.MinB)
	}
}

func TestBytesSucc(t *testing.T) {
	if s, ok := BytesSucc([]byte("ab")); !ok || string(s) != "ac" {
		t.Fatalf("succ(ab) = %q %v", s, ok)
	}
	if s, ok := BytesSucc([]byte{0x61, 0xff}); !ok || string(s) != "b" {
		t.Fatalf("succ(a\\xff) = %q %v", s, ok)
	}
	if _, ok := BytesSucc([]byte{0xff, 0xff}); ok {
		t.Fatal("succ(\\xff\\xff) should not exist")
	}
	if _, ok := BytesSucc(nil); ok {
		t.Fatal("succ(empty) should not exist")
	}
}

func TestZoneMapJSONRoundTrip(t *testing.T) {
	s := testSchema(t)
	z := NewZoneMap(s.NumColumns())
	z.Update(s, mkRec(t, s, 7, 3, 1.25, "kiwi").Bytes())
	data, err := json.Marshal(z)
	if err != nil {
		t.Fatal(err)
	}
	var back ZoneMap
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Rows() != 1 {
		t.Fatalf("rows = %d", back.Rows())
	}
	cz, ok := back.Col(0)
	if !ok || cz.MinI != 7 || cz.MaxI != 7 {
		t.Fatalf("restored id zone %+v ok=%v", cz, ok)
	}
}

// TestStoreOpenRebuildsZones simulates a legacy directory: the segment
// file exists but the catalog entry has no zone map. Open must rebuild
// it by scanning the file, and a persisted map must extend over rows
// appended after it was written.
func TestStoreOpenRebuildsZones(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema(t)
	hist := record.NewHistory(schema)
	pool := heap.NewPool(8, 1<<16)
	st := New(pool, hist)

	path := filepath.Join(dir, "seg0.dat")
	seg, err := st.Open(path, SegMeta{Cols: schema.NumColumns()}, -1)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if _, err := st.Append(seg, mkRec(t, schema, i, i*2, float64(i), "s")); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.File.Close(); err != nil {
		t.Fatal(err)
	}

	// Legacy: no zone in the metadata at all.
	reopened, err := st.Open(path, SegMeta{Cols: schema.NumColumns()}, -1)
	if err != nil {
		t.Fatal(err)
	}
	cz, _ := reopened.Zone().Col(1)
	if cz.MinI != 0 || cz.MaxI != 18 {
		t.Fatalf("rebuilt v zone [%d,%d]", cz.MinI, cz.MaxI)
	}
	if reopened.Zone().Rows() != 10 {
		t.Fatalf("rebuilt rows = %d", reopened.Zone().Rows())
	}

	// Partial: a persisted map covering only the first 4 rows extends.
	partial := NewZoneMap(schema.NumColumns())
	buf := make([]byte, schema.RecordSize())
	for i := int64(0); i < 4; i++ {
		if err := reopened.File.Read(i, buf); err != nil {
			t.Fatal(err)
		}
		partial.Update(schema, buf)
	}
	if err := reopened.File.Close(); err != nil {
		t.Fatal(err)
	}
	extended, err := st.Open(path, SegMeta{Cols: schema.NumColumns(), Zone: partial}, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer extended.File.Close()
	cz, _ = extended.Zone().Col(1)
	if extended.Zone().Rows() != 10 || cz.MaxI != 18 {
		t.Fatalf("extended rows=%d max=%d", extended.Zone().Rows(), cz.MaxI)
	}
}

// TestStoreTruncateRebuildsZones: a map wider than the (rolled-back)
// file is rebuilt, keeping bounds tight.
func TestStoreTruncateRebuildsZones(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema(t)
	hist := record.NewHistory(schema)
	st := New(heap.NewPool(8, 1<<16), hist)

	path := filepath.Join(dir, "seg0.dat")
	seg, err := st.Open(path, SegMeta{Cols: schema.NumColumns()}, -1)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if _, err := st.Append(seg, mkRec(t, schema, i, i, 0, "s")); err != nil {
			t.Fatal(err)
		}
	}
	wide := seg.Zone()
	if err := seg.File.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen with safeCount 5: the file truncates and the stale (wider)
	// map must be rebuilt over the surviving rows.
	back, err := st.Open(path, SegMeta{Cols: schema.NumColumns(), Zone: wide}, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer back.File.Close()
	cz, _ := back.Zone().Col(1)
	if back.Zone().Rows() != 5 || cz.MaxI != 4 {
		t.Fatalf("truncated rows=%d max=%d", back.Zone().Rows(), cz.MaxI)
	}
}
