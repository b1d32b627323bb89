package tf

import (
	"decibel/internal/bitmap"
	"decibel/internal/core"
	"decibel/internal/store"
)

// The read SPI (core.Engine.Live and LookupPK). Tuple-first has one
// slot space, the shared heap: a version is one bitmap over its global
// slots — a branch's column for a head, one checkout of the committing
// branch's history for a commit — and the space's segments are the
// extents, each at its base slot. Because extents rotate only on schema
// change, one extent typically spans every branch's rows and its
// segment-level zone rarely prunes; each extent therefore also carries
// an in-memory page-zone index (store.PageZones), which core's unit
// walk uses to skip page-sized chunks inside the surviving extents.

// liveLocked returns the version's bitmap over global slots: the
// branch's own column (empty for a branch the engine never registered)
// or a fresh checkout. Caller holds e.mu.
func (e *Engine) liveLocked(v core.Version) (*bitmap.Bitmap, error) {
	if v.Commit == nil {
		return e.column(v.Branch), nil
	}
	log, err := e.openLog(v.Commit.Branch)
	if err != nil {
		return nil, err
	}
	return log.Checkout(v.Commit.Seq)
}

// LookupPK implements core.Engine: the version index (Section 3.2's
// update/delete index, kept once for all branches) lists the key's
// slots in the shared heap, and the version's bitmap picks the live
// one.
func (e *Engine) LookupPK(v core.Version, pk int64) ([]byte, int, bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	bm, err := e.liveLocked(v)
	if err != nil {
		return nil, 0, false, err
	}
	p := e.vers.Find(pk, func(p store.Pos) bool { return bm.Get(int(p.Slot)) })
	if p == store.NoPos {
		return nil, 0, true, nil
	}
	x := e.extFor(p.Slot)
	buf := make([]byte, x.Schema.RecordSize())
	if err := x.File.Read(p.Slot-x.Base, buf); err != nil {
		return nil, 0, false, err
	}
	return buf, x.Cols, true, nil
}

// Live implements core.Engine.
func (e *Engine) Live(vs []core.Version, fn func([]core.SlotSpace) error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	sp, err := e.spaceLocked(vs)
	if err != nil {
		return err
	}
	return fn([]core.SlotSpace{sp})
}

// spaceLocked returns the shared heap as a slot space: the versions'
// bitmaps over global slots, and the extents in slot order. Published
// extents are immutable; only the tail, which is never Frozen, still
// grows. Caller holds e.mu.
func (e *Engine) spaceLocked(vs []core.Version) (core.SlotSpace, error) {
	sp := core.SlotSpace{Live: make([]*bitmap.Bitmap, len(vs)), Segs: make([]core.SpaceSeg, len(e.cat.Segs))}
	for i, v := range vs {
		var err error
		if sp.Live[i], err = e.liveLocked(v); err != nil {
			return sp, err
		}
		sp.Mutable = sp.Mutable || v.Commit == nil
	}
	for j, x := range e.cat.Segs {
		sp.Segs[j] = core.SpaceSeg{Segment: x.Segment, Base: x.Base, Frozen: x.Frozen}
	}
	return sp, nil
}
