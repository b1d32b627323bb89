package tf

// Schema-versioned storage for the tuple-first scheme. The shared heap
// is a sequence of extents: fixed-width heap files in a chained segment
// catalog (internal/store), each tagged with the number of physical
// schema columns its records were encoded under. Slot numbers — what
// the bitmap index and the version index address — are global: an
// extent covers [Base, Base+count). A schema change
// never rewrites a page; it just seals the current extent, and the
// next insert under the wider layout opens a new one. Reads convert
// old-extent buffers on the fly, filling declared defaults for columns
// the extent predates, and each extent's zone map lets bounded scans
// skip it wholesale.

import (
	"fmt"

	"decibel/internal/record"
	"decibel/internal/store"
)

// extMeta is the persisted extent table entry: the shared segment
// state (schema-version id, freeze flag, zone map) plus the sealed
// extent's final slot count (0 and unused for the open tail extent,
// whose count comes from the file length) and, for rewritten extents,
// the data file basename (empty = the catalog's naming rule).
type extMeta struct {
	store.SegMeta
	Count int64  `json:"count,omitempty"`
	Name  string `json:"name,omitempty"`
}

type extFile struct {
	Extents []extMeta `json:"extents"`
}

// openExtents loads (or initializes) the extent table. Datasets from
// before schema versioning have no extents.json and exactly one extent
// at the table's full physical layout; catalogs from before zone maps
// have no persisted zones — the store rebuilds them from the files.
// Every extent but the tail is sealed, whatever the file says, and keeps
// its sealed count: no global slot maps past it.
func (e *Engine) openExtents() error {
	var ef extFile
	if err := e.cat.Load(&ef); err != nil {
		return fmt.Errorf("tf: %w", err)
	}
	metas := ef.Extents
	if len(metas) == 0 {
		metas = []extMeta{{SegMeta: store.SegMeta{Cols: e.hist.PhysCols()}}}
	}
	for i, m := range metas {
		e.cat.Segs = append(e.cat.Segs, &store.Entry{ID: int32(i), Name: m.Name})
	}
	err := e.cat.Open(func(i int) (store.SegMeta, int64) {
		m := metas[i]
		if m.Frozen = i < len(metas)-1; m.Frozen {
			return m.SegMeta, m.Count
		}
		return m.SegMeta, -1
	})
	if err != nil {
		return fmt.Errorf("tf: extent table: %w", err)
	}
	return nil
}

// extentTable is the extent table as extents.json holds it.
func (e *Engine) extentTable() any {
	ef := extFile{Extents: make([]extMeta, len(e.cat.Segs))}
	for i, x := range e.cat.Segs {
		ef.Extents[i] = extMeta{SegMeta: x.Meta(), Name: x.Name}
		if x.Frozen {
			ef.Extents[i].Count = x.File.Count()
		}
	}
	return &ef
}

// lastExt returns the open tail extent.
func (e *Engine) lastExt() *store.Entry { return e.cat.Segs[len(e.cat.Segs)-1] }

// extFor locates the extent containing a global slot. Extents are few
// (one per schema change), so a backward linear scan suffices.
func (e *Engine) extFor(slot int64) *store.Entry {
	exts := e.cat.Segs
	for i := len(exts) - 1; i >= 0; i-- {
		if slot >= exts[i].Base {
			return exts[i]
		}
	}
	return exts[0]
}

// ensureExtentLocked makes the tail extent hold at least cols physical
// columns: when the schema has widened since it was created, the tail
// is sealed and a new extent at the wider layout opened, and the extent
// table saved. Caller holds e.mu.
func (e *Engine) ensureExtentLocked(cols int) error {
	last := e.lastExt()
	if !last.NeedsRotation(cols) {
		return nil
	}
	last.Freeze()
	if err := e.cat.Add(&store.Entry{ID: int32(len(e.cat.Segs))}, cols); err != nil {
		return err
	}
	return e.cat.Save()
}

// appendLocked encodes rec into the tail extent's layout and returns
// its global slot. Caller holds e.mu.
func (e *Engine) appendLocked(rec *record.Record) (int64, error) {
	last := e.lastExt()
	slot, err := e.st.Append(last.Segment, rec)
	if err != nil {
		return 0, err
	}
	return last.Base + slot, nil
}
