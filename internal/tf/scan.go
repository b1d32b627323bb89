package tf

import (
	"decibel/internal/bitmap"
	"decibel/internal/core"
	"decibel/internal/store"
)

// The read SPI (core.Engine.PartitionScan and LookupPK). Tuple-first's
// liveness is one bitmap per branch over the shared heap, so every scan
// shape partitions into one unit per extent whose walk is the extent's
// live-page scan under a global-slot bitmap resolved at partition time:
// the branch column, a checkout, the XOR of two columns, or — for a
// multi-branch scan — the OR of the requested columns, one pass over
// the heap touching only pages with a live tuple in some requested
// branch. The scan driver in core prunes whole extents by zone map and
// evaluates the spec on the raw page buffer; buffers from extents older
// than the spec's schema epoch are widened there, so old pages are
// never rewritten.
//
// Because extents rotate only on schema change, one extent typically
// spans every branch's rows and its segment-level zone rarely prunes;
// each extent therefore also carries an in-memory page-zone index
// (store.PageZones) and a bounded scan's walk skips page-sized chunks
// inside the surviving extents.

// LookupPK implements core.Engine: the version index (Section 3.2's
// update/delete index, kept once for all branches) lists the key's
// slots in the shared heap, and the version's bitmap picks the live
// one — the branch's column for a head, one checkout of the committing
// branch's history for a commit.
func (e *Engine) LookupPK(req core.ScanRequest, pk int64) ([]byte, int, bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var p store.Pos
	switch req.Kind {
	case core.ScanKindBranch:
		p = e.livePos(req.Branch, pk)
	case core.ScanKindCommit:
		log, err := e.openLog(req.Commit.Branch)
		if err != nil {
			return nil, 0, false, err
		}
		bm, err := log.Checkout(req.Commit.Seq)
		if err != nil {
			return nil, 0, false, err
		}
		p = e.vers.Find(pk, func(p store.Pos) bool { return bm.Get(int(p.Slot)) })
	default:
		return nil, 0, false, nil
	}
	if p == store.NoPos {
		return nil, 0, true, nil
	}
	buf, ext, err := e.reader().read(p.Slot)
	if err != nil {
		return nil, 0, false, err
	}
	return buf, ext.Cols, true, nil
}

// extUnit builds the scan unit of one extent over a global-slot
// liveness bitmap; aux sees global slots. Sealed extents are frozen
// (immutable pages, immutable bitmapped prefix) and safe on any
// goroutine.
func extUnit(ext *extent, bm *bitmap.Bitmap, aux func(slot int64) core.UnitAux) core.ScanUnit {
	return core.ScanUnit{
		Frozen:   ext.Frozen,
		Zone:     ext.Zone(),
		PhysCols: ext.Cols,
		Aux:      aux,
		Walk: func(spec *core.ScanSpec, visit func(slot int64, buf []byte) bool) error {
			return walkExtent(ext, bm, spec, visit)
		},
	}
}

// walkExtent hands visit every slot of the extent live in bm, by global
// slot. When the spec carries bounds and the extent has a page-zone
// index, the page-sized chunks whose zones exclude them are skipped.
func walkExtent(ext *extent, bm *bitmap.Bitmap, spec *core.ScanSpec, visit func(slot int64, buf []byte) bool) error {
	stopped := false
	local := func(slot int64, buf []byte) bool {
		if !bm.Get(int(ext.base + slot)) {
			return true
		}
		stopped = !visit(ext.base+slot, buf)
		return !stopped
	}
	live := offsetBitmap{bm: bm, base: ext.base}
	pz := ext.Pages()
	if pz == nil || !spec.HasBounds() {
		return ext.File.ScanLive(live, local)
	}
	// Any slot the liveness snapshot can mark live was appended — and
	// folded into its page zone — before the snapshot was taken, so
	// [0, NumChunks) covers every visitable slot.
	chunk := pz.Chunk()
	for p, n := 0, pz.NumChunks(); p < n && !stopped; p++ {
		if z := pz.Zone(p); z != nil && spec.SkipPage(z, ext.Cols) {
			continue
		}
		if err := ext.File.ScanLiveRange(live, int64(p)*chunk, int64(p+1)*chunk, local); err != nil {
			return err
		}
	}
	return nil
}

// PartitionScan implements core.Engine: one unit per extent in global
// slot order, with the branch/checkout bitmaps resolved under the
// engine lock at partition time. Branch columns are copied there: the
// heads keep changing once the lock drops.
func (e *Engine) PartitionScan(req core.ScanRequest) ([]core.ScanUnit, func(), error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	// exts is a snapshot: published extents are immutable; only the
	// tail, which is never Frozen, still grows.
	exts := e.exts
	var (
		bm   *bitmap.Bitmap                // liveness over global slots
		aux  func(slot int64) core.UnitAux // diff side, or multi membership
		cols []*bitmap.Bitmap              // multi: the requested branch columns
	)
	switch req.Kind {
	case core.ScanKindBranch:
		bm = e.column(req.Branch).Clone()

	case core.ScanKindCommit:
		log, err := e.openLog(req.Commit.Branch)
		if err != nil {
			return nil, nil, err
		}
		if bm, err = log.Checkout(req.Commit.Seq); err != nil {
			return nil, nil, err
		}

	case core.ScanKindDiff:
		colA := e.column(req.A).Clone()
		bm = bitmap.Xor(colA, e.column(req.B))
		aux = core.DiffAux(colA)

	case core.ScanKindMulti:
		cols = make([]*bitmap.Bitmap, len(req.Branches))
		bm = bitmap.New(0)
		for i, b := range req.Branches {
			cols[i] = e.column(b).Clone()
			bm.Or(cols[i])
		}
	}
	units := make([]core.ScanUnit, 0, len(exts))
	for _, x := range exts {
		if req.Kind == core.ScanKindMulti {
			aux = core.MemberAux(cols)
		}
		units = append(units, extUnit(x, bm, aux))
		// Pinned until release: a concurrent compaction swapping the
		// extent's file retires the old one only after the pins drain.
		x.Segment.Pin()
	}
	return units, func() {
		for _, x := range exts {
			x.Segment.Unpin()
		}
	}, nil
}
