package core

import (
	"context"
	"encoding/binary"
	"path/filepath"
	"testing"

	"decibel/internal/bitmap"
	"decibel/internal/heap"
	"decibel/internal/record"
	"decibel/internal/store"
)

// planeNodes is a PlaneSource handing out fixed steps.
type planeNodes []PlaneNode

func (p planeNodes) PlaneNodes() []PlaneNode { return p }

// TestPlanesDecideRowsBeforePredicate: on a dcz segment the row
// predicate runs only on the live rows the planes pass — a dict plane
// rules rows out by code, a const plane a whole page, a delta plane
// nothing — and the rows emitted are exactly those a walk without the
// planes emits.
func TestPlanesDecideRowsBeforePredicate(t *testing.T) {
	schema := record.MustSchema(
		record.Column{Name: "id", Type: record.Int64},
		record.Column{Name: "cat", Type: record.Int32}, // dict: id % 10
		record.Column{Name: "k", Type: record.Int64},   // const per page: id / 100
	)
	hist := record.NewHistory(schema)
	st := store.New(heap.NewPool(4, 4096), hist)
	const rows, per = 1000, 100
	w := store.NewCompressedWriter(schema, per)
	for i := int64(0); i < rows; i++ {
		r := record.New(schema)
		r.SetPK(i)
		r.Set(1, i%10)
		r.Set(2, i/per)
		if err := w.Append(r.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "seg.dcz")
	if err := w.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	sg, err := st.Open(path, store.SegMeta{Cols: st.Hist.PhysCols(), Encoding: store.EncDCZ, Frozen: true}, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer sg.File.Close()

	col := func(i int) func([]byte) int64 {
		off := schema.ColumnOffset(i)
		if schema.Column(i).Type == record.Int32 {
			return func(buf []byte) int64 { return int64(int32(binary.LittleEndian.Uint32(buf[off:]))) }
		}
		return func(buf []byte) int64 { return int64(binary.LittleEndian.Uint64(buf[off:])) }
	}
	id, cat, k := col(0), col(1), col(2)
	leaf := func(i int, match func(v int64) bool) PlaneNode {
		get := col(i)
		return PlaneNode{Op: PlaneCol, Off: schema.ColumnOffset(i), Width: schema.Column(i).Width(),
			Match: func(buf []byte) bool { return match(get(buf)) }}
	}
	live := bitmap.New(rows)
	for i := 0; i < rows; i++ {
		if i%3 != 0 {
			live.Set(i)
		}
	}

	cases := []struct {
		name  string
		pred  func(buf []byte) bool
		nodes planeNodes
		// visits counts the live rows the planes cannot rule out.
		visits func(i int64) bool
	}{
		{
			name:   "cat in {3,4} (dict)",
			pred:   func(b []byte) bool { return cat(b) == 3 || cat(b) == 4 },
			nodes:  planeNodes{leaf(1, func(v int64) bool { return v == 3 || v == 4 })},
			visits: func(i int64) bool { return i%10 == 3 || i%10 == 4 },
		},
		{
			name: "k = 2 (const)",
			pred: func(b []byte) bool { return k(b) == 2 },
			nodes: planeNodes{
				leaf(2, func(v int64) bool { return v == 2 }),
			},
			visits: func(i int64) bool { return i/per == 2 },
		},
		{
			name: "not(cat = 3) and id < 500 (dict, delta)",
			pred: func(b []byte) bool { return cat(b) != 3 && id(b) < 500 },
			nodes: planeNodes{
				leaf(1, func(v int64) bool { return v == 3 }), {Op: PlaneNot},
				leaf(0, func(v int64) bool { return v < 500 }),
				{Op: PlaneAnd, N: 2},
			},
			visits: func(i int64) bool { return i%10 != 3 },
		},
		{
			name: "not(id < 500) and cat = 3 (delta, dict)",
			pred: func(b []byte) bool { return id(b) >= 500 && cat(b) == 3 },
			nodes: planeNodes{
				leaf(0, func(v int64) bool { return v < 500 }), {Op: PlaneNot},
				leaf(1, func(v int64) bool { return v == 3 }),
				{Op: PlaneAnd, N: 2},
			},
			visits: func(i int64) bool { return i%10 == 3 },
		},
		{
			name: "cat = 1 or k >= 8 (dict, const)",
			pred: func(b []byte) bool { return cat(b) == 1 || k(b) >= 8 },
			nodes: planeNodes{
				leaf(1, func(v int64) bool { return v == 1 }),
				leaf(2, func(v int64) bool { return v >= 8 }),
				{Op: PlaneOr, N: 2},
			},
			visits: func(i int64) bool { return i%10 == 1 || i/per >= 8 },
		},
		{
			name: "id > 10 or true (delta, true)",
			pred: func(b []byte) bool { return true },
			nodes: planeNodes{
				leaf(0, func(v int64) bool { return v > 10 }), {Op: PlaneTrue},
				{Op: PlaneOr, N: 2},
			},
			visits: func(int64) bool { return true },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(src PlaneSource) (calls int, got []int64) {
				spec, err := NewScanSpecAt(hist, 0, func(b []byte) bool { calls++; return tc.pred(b) }, nil)
				if err != nil {
					t.Fatal(err)
				}
				r := NewUnitRunner(context.Background(), spec, func(rec *record.Record, _ UnitAux) bool {
					got = append(got, rec.PK())
					return true
				})
				if src != nil {
					r.UsePlanes(src)
				}
				u := ScanUnit{Frozen: true, PhysCols: 3, seg: SpaceSeg{Segment: sg}, live: live}
				if err := r.Run(&u); err != nil {
					t.Fatal(err)
				}
				return calls, got
			}
			rowCalls, want := run(nil)
			calls, got := run(tc.nodes)
			if len(got) != len(want) {
				t.Fatalf("planes emitted %d rows, rows alone %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("row %d: key %d, want %d", i, got[i], want[i])
				}
			}
			wantCalls := 0
			for i := int64(0); i < rows; i++ {
				if live.Get(int(i)) && tc.visits(i) {
					wantCalls++
				}
			}
			if calls != wantCalls || rowCalls != live.Count() {
				t.Fatalf("row predicate ran %d times with planes (want %d), %d without (want %d)", calls, wantCalls, rowCalls, live.Count())
			}
		})
	}
}
