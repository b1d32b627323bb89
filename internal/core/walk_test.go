package core

import (
	"path/filepath"
	"slices"
	"testing"

	"decibel/internal/bitmap"
	"decibel/internal/heap"
	"decibel/internal/record"
	"decibel/internal/store"
)

// scanCounter records the first slot of every Scan a walk makes.
type scanCounter struct {
	store.SegFile
	froms []int64
}

func (f *scanCounter) Scan(from, to int64, fn func(slot int64, rec []byte) bool) error {
	f.froms = append(f.froms, from)
	return f.SegFile.Scan(from, to, fn)
}

// walkSegs returns a heap segment and a compressed one of the same
// eight pages of records, record i holding key i and a = i, each with a
// Scan counter, placed at a nonzero Base as tuple-first's later extents
// are. The two files page differently.
func walkSegs(t *testing.T) map[string]SpaceSeg {
	schema := record.MustSchema(record.Column{Name: "id", Type: record.Int64}, record.Column{Name: "a", Type: record.Int64})
	hist := record.NewHistory(schema)
	st := store.New(heap.NewPool(16, 512), hist)
	dir := t.TempDir()
	hp, err := st.Open(filepath.Join(dir, "seg.dat"), store.SegMeta{Cols: st.Hist.PhysCols()}, -1)
	if err != nil {
		t.Fatal(err)
	}
	w := store.NewCompressedWriter(hp.Schema, 7)
	n := 8 * int64(hp.File.PerPage())
	for i := range n {
		r := record.New(schema)
		r.SetPK(i)
		r.Set(1, i)
		if _, err := st.Append(hp, r); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(r.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	dczPath := filepath.Join(dir, "seg.dcz")
	if err := w.WriteFile(dczPath); err != nil {
		t.Fatal(err)
	}
	dcz, err := st.Open(dczPath, store.SegMeta{Cols: st.Hist.PhysCols(), Encoding: store.EncDCZ, Frozen: true}, -1)
	if err != nil {
		t.Fatal(err)
	}
	segs := map[string]SpaceSeg{}
	for name, sg := range map[string]*store.Segment{"heap": hp, "dcz": dcz} {
		t.Cleanup(func() { sg.File.Close() })
		sg.File = &scanCounter{SegFile: sg.File}
		segs[name] = SpaceSeg{Segment: sg, Base: 1000}
	}
	return segs
}

// TestWalkSlots: a walk reads only the pages that hold a live slot,
// counts each of them scanned, hands visit the live slots alone in the
// space's numbering, and ends at the first false visit.
func TestWalkSlots(t *testing.T) {
	segs := walkSegs(t)
	for name, sg := range segs {
		t.Run(name, func(t *testing.T) {
			per, base, count := int64(sg.File.PerPage()), sg.Base, sg.File.Count()
			scans := sg.File.(*scanCounter)
			var w slotWalker
			walk := func(live []int64, stopAfter int) (visited, froms []int64) {
				bm := bitmap.New(0)
				for _, s := range live {
					bm.Set(int(s))
				}
				scans.froms = nil
				w.bind(func(slot int64, buf []byte) bool {
					if got := record.PKOf(buf); got != slot-base {
						t.Fatalf("slot %d holds key %d, want %d", slot, got, slot-base)
					}
					visited = append(visited, slot)
					return len(visited) != stopAfter
				})
				if err := w.walkSlots(sg, bm); err != nil {
					t.Fatal(err)
				}
				return visited, scans.froms
			}

			// Live slots on pages 1 and 5 only, plus slots outside the
			// segment (another extent's) on either side of it.
			live := []int64{base - 1, base + per + 2, base + 5*per, base + 5*per + 3, base + count}
			visited, froms := walk(live, 0)
			if want := live[1:4]; !slices.Equal(visited, want) {
				t.Fatalf("visited %v, want %v", visited, want)
			}
			if want := []int64{per, 5 * per}; !slices.Equal(froms, want) {
				t.Fatalf("scanned pages from %v, want %v: a page with no live slot was read", froms, want)
			}
			if w.scanned != 2 || w.skipped != 0 {
				t.Fatalf("walk counted %d pages scanned, %d skipped, want 2 and 0", w.scanned, w.skipped)
			}

			// Nothing live: nothing read.
			if visited, froms := walk(nil, 0); len(visited)+len(froms) != 0 || w.scanned != 0 {
				t.Fatalf("empty bitmap visited %v, scanned %v, counted %d pages", visited, froms, w.scanned)
			}

			// Stopping at the first visit ends the walk.
			visited, froms = walk(live, 1)
			if len(visited) != 1 || len(froms) != 1 {
				t.Fatalf("early stop visited %v, scanned %v", visited, froms)
			}
		})
	}
}
