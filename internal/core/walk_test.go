package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"decibel/internal/bitmap"
	"decibel/internal/heap"
	"decibel/internal/record"
	"decibel/internal/store"
)

// pageLog records the pages a walk reads of one segment file.
type pageLog struct{ pages []int64 }

// rowPages counts the pages read through the row accessor (a heap
// file's).
type rowPages struct {
	store.SegFile
	*pageLog
}

func (f rowPages) ReadPage(p int64, fn func(rows []byte)) error {
	f.pages = append(f.pages, p)
	return f.SegFile.ReadPage(p, fn)
}

// dczPages counts the pages read decoded, with their planes (a dcz
// file's).
type dczPages struct {
	*store.CompressedFile
	*pageLog
}

func (f dczPages) Page(i int) (*store.Page, error) {
	f.pages = append(f.pages, int64(i))
	return f.CompressedFile.Page(i)
}

const (
	walkBase = 1000 // a later extent's first slot, not a multiple of 64
	walkRows = 530  // every file ends in a partial page
)

// walkSeg is one segment of the walk test: its file's pages are
// counted, and old says it is stored under the layout before column b
// was added.
type walkSeg struct {
	SpaceSeg
	log *pageLog
	old bool
}

// walkSegs returns four segments of the same walkRows records, row i
// holding key i, a = i, c = i%5 and — in the current layout — b = i%4:
// a heap one and a dcz one in the current layout, and a heap one and a
// dcz one in the layout before b, which a scan converts, reading b as
// its default 7. Each sits at walkBase, as tuple-first's later extents
// do, and the heap and dcz files page differently (141, 195 and 100
// rows a page).
func walkSegs(t *testing.T) (*record.History, map[string]walkSeg) {
	old := record.MustSchema(record.Column{Name: "id", Type: record.Int64}, record.Column{Name: "a", Type: record.Int64},
		record.Column{Name: "c", Type: record.Int32})
	hist := record.NewHistory(old)
	if err := hist.AddColumn(1, record.Column{Name: "b", Type: record.Int64}, int64(7)); err != nil {
		t.Fatal(err)
	}
	st := store.New(heap.NewPool(16, 4096), hist)
	dir := t.TempDir()
	segs := map[string]walkSeg{}
	for _, cols := range []int{3, 4} {
		schema, err := hist.PhysByCount(cols)
		if err != nil {
			t.Fatal(err)
		}
		prefix := ""
		if cols == 3 {
			prefix = "old "
		}
		hp, err := st.Open(filepath.Join(dir, fmt.Sprint(cols, ".dat")), store.SegMeta{Cols: cols}, -1)
		if err != nil {
			t.Fatal(err)
		}
		w := store.NewCompressedWriter(schema, 100)
		for i := range int64(walkRows) {
			r := record.New(schema)
			r.SetPK(i)
			r.Set(1, i)
			r.Set(2, i%5)
			if cols == 4 {
				r.Set(3, i%4)
			}
			if _, err := hp.File.Append(r.Bytes()); err != nil {
				t.Fatal(err)
			}
			if err := w.Append(r.Bytes()); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, fmt.Sprint(cols, ".dcz"))
		if err := w.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		dcz, err := st.Open(path, store.SegMeta{Cols: cols, Encoding: store.EncDCZ, Frozen: true}, -1)
		if err != nil {
			t.Fatal(err)
		}
		for name, sg := range map[string]*store.Segment{"heap": hp, "dcz": dcz} {
			t.Cleanup(func() { sg.File.Close() })
			log := &pageLog{}
			if cf, ok := sg.File.(*store.CompressedFile); ok {
				sg.File = dczPages{cf, log}
			} else {
				sg.File = rowPages{sg.File, log}
			}
			segs[prefix+name] = walkSeg{SpaceSeg{Segment: sg, Base: walkBase}, log, cols == 3}
		}
	}
	return hist, segs
}

// walkLive is the walk test's liveness of row i of a file with per rows
// a page: nothing on page 1, only c = 2 on page 2 (so the c plane rules
// out every live row there), only the first row on page 3, and every
// row but i%7 = 3 elsewhere.
func walkLive(i, per int64) bool {
	switch i / per {
	case 1:
		return false
	case 2:
		return i%5 == 2
	case 3:
		return i%per == 0
	}
	return i%7 != 3
}

// pageRows collects, as a PageSink, the keys of the rows each page
// selects.
type pageRows struct {
	t       *testing.T
	recSize int
	keys    []int64
	stop    bool // stop after the first page
}

func (s *pageRows) AddPage(pg *store.Page, sel []uint64) bool {
	for wi, w := range sel {
		for b := 0; b < 64; b++ {
			if w&(1<<uint(b)) == 0 {
				continue
			}
			r := wi*64 + b
			if (r+1)*s.recSize > len(pg.Rows) {
				s.t.Fatalf("sel selects row %d of a page of %d bytes", r, len(pg.Rows))
			}
			s.keys = append(s.keys, record.PKOf(pg.Rows[r*s.recSize:(r+1)*s.recSize]))
		}
	}
	return !s.stop
}

// TestWalkSlots: on a heap segment, a dcz segment and segments stored
// under an older layout, each at a nonzero base and ending in a partial
// page, one walk hands either consumer — the row emitter or a page
// sink — exactly the live slots the predicate accepts, in slot order,
// with a diff's side and a multi-branch scan's membership annotated;
// it reads only the pages that hold a live slot, counts a page whose
// planes rule out every live row skipped and every other scanned, and
// ends at the first false from either consumer.
func TestWalkSlots(t *testing.T) {
	hist, segs := walkSegs(t)
	schema := hist.VisibleAt(1)
	off := func(col string) int { return schema.ColumnOffset(schema.ColumnIndex(col)) }
	get := func(buf []byte, col string) int64 {
		if col == "c" {
			return int64(int32(binary.LittleEndian.Uint32(buf[off(col):])))
		}
		return int64(binary.LittleEndian.Uint64(buf[off(col):]))
	}
	leaf := func(col string, match func(v int64) bool) PlaneNode {
		return PlaneNode{Op: PlaneCol, Off: off(col), Width: schema.Column(schema.ColumnIndex(col)).Width(),
			Match: func(buf []byte) bool { return match(get(buf, col)) }}
	}
	type predCase struct {
		pred  func(buf []byte) bool
		nodes planeNodes
		// want is the predicate on row i's values.
		want func(i, b int64) bool
	}
	preds := map[string]predCase{
		"none": {want: func(int64, int64) bool { return true }},
		// Decided by the c and b dict planes alone on a dcz page.
		"planes": {
			pred:  func(buf []byte) bool { return get(buf, "c") != 2 && get(buf, "b") != 1 },
			nodes: planeNodes{leaf("c", func(v int64) bool { return v != 2 }), leaf("b", func(v int64) bool { return v != 1 }), {Op: PlaneAnd, N: 2}},
			want:  func(i, b int64) bool { return i%5 != 2 && b != 1 },
		},
		// a is delta-encoded: the row predicate decides what c and b
		// leave.
		"rows": {
			pred: func(buf []byte) bool { return get(buf, "c") != 2 && get(buf, "a")%3 != 0 && get(buf, "b") != 1 },
			nodes: planeNodes{leaf("c", func(v int64) bool { return v != 2 }), leaf("a", func(v int64) bool { return v%3 != 0 }),
				leaf("b", func(v int64) bool { return v != 1 }), {Op: PlaneAnd, N: 3}},
			want: func(i, b int64) bool { return i%5 != 2 && i%3 != 0 && b != 1 },
		},
	}
	for name, sg := range segs {
		t.Run(name, func(t *testing.T) {
			per, count := int64(sg.File.PerPage()), sg.File.Count()
			if count%per == 0 || walkBase%64 == 0 {
				t.Fatalf("segment of %d rows, %d a page, at %d: want a partial last page at a base off the word grid", count, per, walkBase)
			}
			live, side := bitmap.New(0), bitmap.New(0)
			cols := []*bitmap.Bitmap{bitmap.New(0), nil, bitmap.New(0)}
			livePages := []int64{}
			for i := range count {
				s := int(walkBase + i)
				if walkLive(i, per) {
					live.Set(s)
					if p := i / per; !slices.Contains(livePages, p) {
						livePages = append(livePages, p)
					}
				}
				if i%2 == 0 {
					side.Set(s)
				}
				if i%3 == 0 {
					cols[0].Set(s)
				}
				if i%4 == 1 {
					cols[2].Set(s)
				}
			}
			// Slots of other extents, on either side of the segment.
			live.Set(walkBase - 1)
			live.Set(int(walkBase + count))

			for pn, pc := range preds {
				var want []int64
				for i := range count {
					b := i % 4
					if sg.old {
						b = 7
					}
					if walkLive(i, per) && pc.want(i, b) {
						want = append(want, i)
					}
				}
				// The c plane rules out page 2 of a dcz page in the
				// spec's layout; every other live page is scanned.
				wantSkipped := int64(0)
				if pc.pred != nil && name == "dcz" {
					wantSkipped = 1
				}
				for _, shape := range []string{"plain", "diff", "multi", "pages"} {
					label := pn + " " + shape
					spec, err := NewScanSpecAt(hist, 1, pc.pred, nil)
					if err != nil {
						t.Fatal(err)
					}
					u := ScanUnit{PhysCols: sg.Cols, seg: sg.SpaceSeg, live: live}
					switch shape {
					case "diff":
						u.side = side
					case "multi":
						u.cols = cols
					}
					var got []int64
					r := NewUnitRunner(context.Background(), spec, func(rec *record.Record, aux UnitAux) bool {
						if rec.Schema().RecordSize() != schema.RecordSize() {
							t.Fatalf("%s: row of %d bytes, want the spec's layout", label, rec.Schema().RecordSize())
						}
						key := rec.PK()
						slot := int(walkBase + key)
						switch shape {
						case "diff":
							if aux.InA != side.Get(slot) {
								t.Fatalf("%s: slot %d InA %v", label, slot, aux.InA)
							}
						case "multi":
							for j, c := range cols {
								if aux.Member.Get(j) != (c != nil && c.Get(slot)) {
									t.Fatalf("%s: slot %d member %d %v", label, slot, j, aux.Member.Get(j))
								}
							}
						}
						if rec.Get(schema.ColumnIndex("b")) != 7 && sg.old {
							t.Fatalf("%s: converted row reads b = %d, want the default 7", label, rec.Get(3))
						}
						got = append(got, key)
						return true
					})
					sink := &pageRows{t: t, recSize: schema.RecordSize()}
					if shape == "pages" {
						r.UsePages(sink)
					}
					if pc.nodes != nil {
						r.UsePlanes(pc.nodes)
					}
					sg.log.pages = nil
					if err := r.Run(&u); err != nil {
						t.Fatal(err)
					}
					if shape == "pages" {
						if len(got) != 0 {
							t.Fatalf("%s: a page sink's scan emitted %d rows", label, len(got))
						}
						got = sink.keys
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s: walk yielded %v\nwant %v", label, got, want)
					}
					if !slices.Equal(sg.log.pages, livePages) {
						t.Fatalf("%s: read pages %v, want %v: only the pages holding a live slot", label, sg.log.pages, livePages)
					}
					if w := r.walk; w.skipped != wantSkipped || w.scanned != int64(len(livePages))-wantSkipped {
						t.Fatalf("%s: counted %d pages scanned, %d skipped, want %d and %d",
							label, w.scanned, w.skipped, int64(len(livePages))-wantSkipped, wantSkipped)
					}
				}
			}

			// Nothing live: nothing read.
			sg.log.pages = nil
			spec, _ := NewScanSpecAt(hist, 1, nil, nil)
			r := NewUnitRunner(context.Background(), spec, func(*record.Record, UnitAux) bool { return true })
			if err := r.Run(&ScanUnit{PhysCols: sg.Cols, seg: sg.SpaceSeg, live: bitmap.New(0)}); err != nil || len(sg.log.pages) != 0 {
				t.Fatalf("empty bitmap read pages %v (err %v)", sg.log.pages, err)
			}

			// Either consumer's first false ends the walk.
			for _, pages := range []bool{false, true} {
				sg.log.pages = nil
				n := 0
				r := NewUnitRunner(context.Background(), spec, func(*record.Record, UnitAux) bool { n++; return false })
				if pages {
					r.UsePages(&pageRows{t: t, recSize: schema.RecordSize(), stop: true})
				}
				if err := r.Run(&ScanUnit{PhysCols: sg.Cols, seg: sg.SpaceSeg, live: live}); err != nil {
					t.Fatal(err)
				}
				if !r.stop || len(sg.log.pages) != 1 || (!pages && n != 1) {
					t.Fatalf("early stop (pages %v): emitted %d rows, read pages %v", pages, n, sg.log.pages)
				}
			}
		})
	}
}
