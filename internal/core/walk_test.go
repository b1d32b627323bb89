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
// eight pages of records, record i holding key i and a = i, each with
// page zones and a Scan counter, placed at a nonzero Base as
// tuple-first's later extents are. The two files page differently.
func walkSegs(t *testing.T) (hist *record.History, segs map[string]SpaceSeg) {
	schema := record.MustSchema(record.Column{Name: "id", Type: record.Int64}, record.Column{Name: "a", Type: record.Int64})
	hist = record.NewHistory(schema)
	st := store.New(heap.NewPool(16, 512), hist)
	dir := t.TempDir()
	hp, err := st.Open(filepath.Join(dir, "seg.dat"), store.SegMeta{}, -1)
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
	dcz, err := st.Open(dczPath, store.SegMeta{Encoding: store.EncDCZ, Frozen: true}, -1)
	if err != nil {
		t.Fatal(err)
	}
	segs = map[string]SpaceSeg{}
	for name, sg := range map[string]*store.Segment{"heap": hp, "dcz": dcz} {
		t.Cleanup(func() { sg.File.Close() })
		if err := sg.EnablePageZones(); err != nil {
			t.Fatal(err)
		}
		sg.File = &scanCounter{SegFile: sg.File}
		segs[name] = SpaceSeg{Segment: sg, Base: 1000}
	}
	return hist, segs
}

// TestWalkSlots: a walk reads only the pages that hold a live slot,
// skips a page whose zone excludes the spec's bounds, hands visit the
// live slots alone in the space's numbering, and ends at the first
// false visit.
func TestWalkSlots(t *testing.T) {
	hist, segs := walkSegs(t)
	for name, sg := range segs {
		t.Run(name, func(t *testing.T) {
			per, base, count := int64(sg.File.PerPage()), sg.Base, sg.File.Count()
			scans := sg.File.(*scanCounter)
			walk := func(live []int64, spec *ScanSpec, stopAfter int) (visited, froms []int64) {
				bm := bitmap.New(0)
				for _, s := range live {
					bm.Set(int(s))
				}
				scans.froms = nil
				var w slotWalker
				w.bind(func(slot int64, buf []byte) bool {
					if got := record.PKOf(buf); got != slot-base {
						t.Fatalf("slot %d holds key %d, want %d", slot, got, slot-base)
					}
					visited = append(visited, slot)
					return len(visited) != stopAfter
				})
				if err := w.walkSlots(sg, bm, spec); err != nil {
					t.Fatal(err)
				}
				return visited, scans.froms
			}

			// Live slots on pages 1 and 5 only, plus slots outside the
			// segment (another extent's) on either side of it.
			live := []int64{base - 1, base + per + 2, base + 5*per, base + 5*per + 3, base + count}
			visited, froms := walk(live, nil, 0)
			if want := live[1:4]; !slices.Equal(visited, want) {
				t.Fatalf("visited %v, want %v", visited, want)
			}
			if want := []int64{per, 5 * per}; !slices.Equal(froms, want) {
				t.Fatalf("scanned pages from %v, want %v: a page with no live slot was read", froms, want)
			}

			// Nothing live: nothing read.
			if visited, froms := walk(nil, nil, 0); len(visited)+len(froms) != 0 {
				t.Fatalf("empty bitmap visited %v, scanned %v", visited, froms)
			}

			// a >= 5*per: page 1's zone excludes the bound, page 5's does not.
			spec, err := NewScanSpecAt(hist, 0, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			spec.SetBounds([]Bound{{Col: 1, Type: record.Int64, HasMin: true, MinI: 5 * per}})
			visited, froms = walk(live, spec, 0)
			if want := live[2:4]; !slices.Equal(visited, want) {
				t.Fatalf("bounded walk visited %v, want %v", visited, want)
			}
			if want := []int64{5 * per}; !slices.Equal(froms, want) {
				t.Fatalf("bounded walk scanned pages from %v, want %v", froms, want)
			}

			// Stopping at the first visit ends the walk.
			visited, froms = walk(live, nil, 1)
			if len(visited) != 1 || len(froms) != 1 {
				t.Fatalf("early stop visited %v, scanned %v", visited, froms)
			}
		})
	}
}
