package core

import (
	"math/bits"

	"decibel/internal/bitmap"
	"decibel/internal/store"
)

// The unit walk. A unit's segment is read a page at a time, and only
// the pages holding a live slot: on branch-clustered data that skips
// the pages holding other branches' records, the page-granularity
// benefit the paper attributes to clustering (Section 5.5), while fully
// interleaved data degrades to a whole-file scan. Every page takes the
// one walk, whatever its storage — a heap page pinned in the pool
// (SegFile.ReadPage), a dcz page from its segment's decoded-page cache,
// either stored under an older layout — and becomes 64-row selection
// words: its live bits, ANDed with what its dict and const planes allow
// (a dcz page in the spec's layout; planes.go), its selected rows
// converted to the spec's layout when it is stored under another, and
// the row predicate run on the rows the planes leave undecided. The
// words go to one of two consumers: a page sink (UnitRunner.UsePages)
// takes the page whole, or the row emitter hands each selected row,
// projected and annotated, to the runner's callback.

// pageWalk is a runner's walk state, kept across units and pages so
// that a runner walks them all without allocating once its buffers
// have grown to the largest page.
type pageWalk struct {
	bm *bitmap.Bitmap // the current unit's live slots
	// first is the current page's first slot in the space's numbering,
	// and rows its row count; recSize is the size its rows are stored at.
	first   int64
	rows    int
	recSize int
	// dcz says the current unit's pages are dcz pages stored in the
	// spec's layout, which the plane program reads and whose folded rows
	// decibel.plane_folded_rows counts.
	dcz bool
	// view stands in for a page that is not a stored dcz page: a heap
	// page's rows, or a page's rows converted into scratch.
	view    store.Page
	scratch []byte
	sel     []uint64
	heap    func(rows []byte) // bound once: walks a heap page's rows
	// scanned and skipped count the current unit's live pages: skipped
	// those whose planes ruled out every row, scanned the rest; folded
	// counts the dcz rows handed to a page sink.
	scanned, skipped, folded int64
}

// decodedPages is a segment file whose pages decode whole, with their
// planes: store.CompressedFile.
type decodedPages interface {
	Page(i int) (*store.Page, error)
}

// walkSlots walks the pages of sg that hold a slot set in bm — both in
// the space's slot numbering — in slot order, each through page, until
// the runner stops. It adds the unit's live pages and folded rows to
// the published counters once, when it ends.
func (r *UnitRunner) walkSlots(sg SpaceSeg, bm *bitmap.Bitmap) error {
	w := &r.walk
	w.bm, w.scanned, w.skipped, w.folded = bm, 0, 0, 0
	defer w.count()
	per := int64(sg.File.PerPage())
	end := sg.Base + sg.File.Count()
	w.recSize = sg.File.RecordSize()
	dp, _ := sg.File.(decodedPages)
	w.dcz = dp != nil && r.conv == nil
	if w.dcz && r.planes != nil && r.prog == nil {
		if nodes := r.planes.PlaneNodes(); nodes == nil {
			r.planes = nil
		} else {
			r.prog = newPlaneProg(nodes, r.spec.schema.RecordSize())
		}
	}
	if nw := int(per+63) / 64; r.pages != nil && cap(w.sel) < nw {
		w.sel = make([]uint64, 0, nw)
	}
	for next := int64(bm.NextSet(int(sg.Base))); next >= 0 && next < end && !r.stop; {
		p := (next - sg.Base) / per
		w.first = sg.Base + p*per
		w.rows = int(min(per, end-w.first))
		if dp != nil {
			pg, err := dp.Page(int(p))
			if err != nil {
				return err
			}
			r.page(pg)
		} else if err := sg.File.ReadPage(p, w.heap); err != nil {
			return err
		}
		next = int64(bm.NextSet(int(w.first + per)))
	}
	return nil
}

// heapPage walks a heap page's rows, which the pool holds pinned for
// the call.
func (r *UnitRunner) heapPage(rows []byte) {
	w := &r.walk
	w.rows = min(w.rows, len(rows)/w.recSize)
	w.view.Rows = rows
	r.page(&w.view)
}

// page walks one live page, whose rows [0, w.rows) hold the slots from
// w.first, into its selection words and hands them to the runner's
// consumer: each word's rows to the row emitter as the word is built,
// or, with a page sink, every word at once. Only this function walks a
// page's words. A page whose planes rule out every live row is counted
// skipped, every other page scanned.
func (r *UnitRunner) page(pg *store.Page) {
	w := &r.walk
	t := tri{may: ^uint64(0)} // what the planes decide of every row
	pp := r.prog
	if !w.dcz || pp == nil || len(pg.Planes) == 0 || !pp.prepare(pg) {
		pp = nil
	} else if !pp.dict {
		t, pp = pp.word(0, 0), nil // every step is constant on the page
	}
	if t.may == 0 {
		w.skipped++
		return
	}
	src, ss, ts := pg.Rows, w.recSize, w.recSize
	if r.conv != nil {
		ts = r.conv.Out().RecordSize()
		if n := w.rows * ts; cap(w.scratch) < n {
			w.scratch = make([]byte, n)
		}
		w.view.Rows = w.scratch[:w.rows*ts]
		pg = &w.view
	}
	rows, pred := pg.Rows, r.spec.Pred
	sel, n, seen := w.sel[:0], 0, uint64(0)
	for at := 0; at < w.rows && !r.stop; at += 64 {
		k := min(64, w.rows-at)
		word, must := w.bm.Word(int(w.first)+at)&t.may, t.must
		if k < 64 {
			word &= 1<<uint(k) - 1
		}
		if pp != nil {
			pt := pp.word(at, k)
			word, must = word&pt.may, pt.must
		}
		seen |= word
		if r.conv != nil {
			for b := word; b != 0; b &= b - 1 {
				i := at + bits.TrailingZeros64(b)
				r.conv.Convert(src[i*ss:(i+1)*ss], rows[i*ts:(i+1)*ts])
			}
		}
		if pred != nil {
			for open := word &^ must; open != 0; open &= open - 1 {
				b := bits.TrailingZeros64(open)
				if i := at + b; !pred(rows[i*ts : (i+1)*ts]) {
					word &^= 1 << uint(b)
				}
			}
		}
		if r.pages != nil {
			sel = append(sel, word)
			n += bits.OnesCount64(word)
			continue
		}
		for ; word != 0; word &= word - 1 {
			i := at + bits.TrailingZeros64(word)
			if !r.emit(w.first+int64(i), rows[i*ts:(i+1)*ts]) {
				break
			}
		}
	}
	w.sel = sel
	if seen == 0 {
		w.skipped++
		return
	}
	w.scanned++
	if n == 0 || r.stop {
		return
	}
	if r.done != nil {
		select {
		case <-r.done:
			r.stop = true
			return
		default:
		}
	}
	if w.dcz {
		w.folded += int64(n)
	}
	r.stop = !r.pages.AddPage(pg, sel)
}

// count adds the walk's live pages and folded rows to the published
// counters.
func (w *pageWalk) count() {
	if w.scanned != 0 {
		pagesScanned.Add(w.scanned)
	}
	if w.skipped != 0 {
		pagesSkipped.Add(w.skipped)
	}
	if w.folded != 0 {
		planeFoldedRows.Add(w.folded)
	}
}
