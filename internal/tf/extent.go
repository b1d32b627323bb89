package tf

// Schema-versioned storage for the tuple-first scheme. The shared heap
// is a sequence of extents: fixed-width heap files managed by the
// shared segment store (internal/store), each tagged with the number
// of physical schema columns its records were encoded under. Slot
// numbers — what the bitmap index and the version index address
// — are global: an extent covers [base, base+count). A schema change
// never rewrites a page; it just seals the current extent, and the
// next insert under the wider layout opens a new one. Reads convert
// old-extent buffers on the fly, filling declared defaults for columns
// the extent predates, and each extent's zone map lets bounded scans
// skip it wholesale.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"decibel/internal/record"
	"decibel/internal/store"
	"decibel/internal/wal"
)

// extent is one fixed-width run of the shared heap: a store segment
// plus the global slot of its slot 0. name is the extent's data file
// basename when it differs from the positional default (compaction
// rewrites sealed extents under data.e<i>.dcz).
type extent struct {
	*store.Segment
	base int64
	name string
}

// extMeta is the persisted extent table entry: the shared segment
// state (schema-version id, freeze flag, zone map) plus the sealed
// extent's final slot count (0 and unused for the open tail extent,
// whose count comes from the file length) and, for rewritten extents,
// the data file basename (empty = the positional extPath name).
type extMeta struct {
	store.SegMeta
	Count int64  `json:"count,omitempty"`
	Name  string `json:"name,omitempty"`
}

type extFile struct {
	Extents []extMeta `json:"extents"`
}

func (e *Engine) extPath(i int) string {
	if i == 0 {
		return filepath.Join(e.env.Dir, "data.heap")
	}
	return filepath.Join(e.env.Dir, fmt.Sprintf("data.e%d.heap", i))
}

func (e *Engine) extMetaPath() string { return filepath.Join(e.env.Dir, "extents.json") }

// openExtents loads (or initializes) the extent table. Datasets from
// before schema versioning have no extents.json and exactly one extent
// at the table's full physical layout; catalogs from before zone maps
// have no persisted zones — the store rebuilds them from the files.
func (e *Engine) openExtents() error {
	metas := []extMeta{{SegMeta: store.SegMeta{Cols: e.hist.PhysCols()}}}
	data, err := os.ReadFile(e.extMetaPath())
	switch {
	case err == nil:
		var ef extFile
		if err := json.Unmarshal(data, &ef); err != nil {
			return fmt.Errorf("tf: corrupt extent table: %w", err)
		}
		if len(ef.Extents) > 0 {
			metas = ef.Extents
		}
	case !errors.Is(err, os.ErrNotExist):
		return fmt.Errorf("tf: %w", err)
	}
	base := int64(0)
	for i, m := range metas {
		sealed := i < len(metas)-1
		m.Frozen = sealed // positional; ignore whatever the catalog says
		path := e.extPath(i)
		if m.Name != "" {
			path = filepath.Join(e.env.Dir, m.Name)
		}
		seg, err := e.st.Open(path, m.SegMeta, -1)
		if err != nil {
			return fmt.Errorf("tf: extent %d: %w", i, err)
		}
		if sealed && seg.File.Count() < m.Count {
			seg.File.Close()
			return fmt.Errorf("tf: extent %d holds %d records, sealed at %d", i, seg.File.Count(), m.Count)
		}
		// The extent-level zone spans every branch's rows and rarely
		// prunes; page zones restore skipping inside the extent.
		if err := seg.EnablePageZones(); err != nil {
			seg.File.Close()
			return fmt.Errorf("tf: extent %d page zones: %w", i, err)
		}
		e.exts = append(e.exts, &extent{Segment: seg, base: base, name: m.Name})
		if sealed {
			base += m.Count
		} else {
			base += seg.File.Count()
		}
	}
	e.sweepOrphans()
	return nil
}

// persistExtentsLocked writes the extent table (zone maps included);
// caller holds e.mu.
func (e *Engine) persistExtentsLocked() error {
	ef := extFile{}
	for _, x := range e.exts {
		m := extMeta{SegMeta: x.Meta(), Name: x.name}
		if x.Frozen {
			m.Count = x.File.Count()
		}
		ef.Extents = append(ef.Extents, m)
	}
	data, err := json.Marshal(&ef)
	if err != nil {
		return fmt.Errorf("tf: %w", err)
	}
	if err := wal.ReplaceFile(e.extMetaPath(), data, e.env.Opt.Fsync); err != nil {
		return fmt.Errorf("tf: %w", err)
	}
	return nil
}

// lastExt returns the open tail extent.
func (e *Engine) lastExt() *extent { return e.exts[len(e.exts)-1] }

// extFor locates the extent containing a global slot. Extents are few
// (one per schema change), so a backward linear scan suffices.
func (e *Engine) extFor(slot int64) *extent {
	for i := len(e.exts) - 1; i >= 0; i-- {
		if slot >= e.exts[i].base {
			return e.exts[i]
		}
	}
	return e.exts[0]
}

// totalCount returns the next global slot number.
func (e *Engine) totalCount() int64 {
	last := e.lastExt()
	return last.base + last.File.Count()
}

// ensureExtentLocked makes the tail extent hold at least cols physical
// columns, sealing the current tail and opening a new extent when the
// schema has widened since it was created (the shared store's
// rotation). Caller holds e.mu.
func (e *Engine) ensureExtentLocked(cols int) error {
	last := e.lastExt()
	ns, rotated, err := e.st.WriteTarget(last.Segment, cols, e.extPath(len(e.exts)))
	if err != nil || !rotated {
		return err
	}
	if err := ns.EnablePageZones(); err != nil {
		return err
	}
	e.exts = append(e.exts, &extent{Segment: ns, base: last.base + last.File.Count()})
	return e.persistExtentsLocked()
}

// appendLocked encodes rec into the tail extent's layout and returns
// its global slot. Caller holds e.mu.
func (e *Engine) appendLocked(rec *record.Record) (int64, error) {
	last := e.lastExt()
	slot, err := e.st.Append(last.Segment, rec)
	if err != nil {
		return 0, err
	}
	return last.base + slot, nil
}
