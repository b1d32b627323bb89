package store

import (
	"sync"

	"decibel/internal/record"
)

// PageZones is a segment's page-granularity sparse index: one ZoneMap
// per heap-page-sized chunk of record slots, built in memory when an
// engine opts a segment in (EnablePageZones) and folded forward on
// every append. It exists for layouts whose segments rarely rotate —
// the tuple-first engine keeps one extent per schema epoch, so its
// segment-level zone spans every branch's rows and almost never prunes;
// per-page zones restore skipping at the granularity scans actually pin
// (cf. the per-block sparse indexes the segment-level maps borrow
// from). Not persisted: rebuilt by one sequential file scan at open.
type PageZones struct {
	mu      sync.Mutex
	numCols int
	chunk   int64 // record slots per zone, = the heap file's PerPage
	rows    int64 // slots covered so far
	zones   []*ZoneMap
}

// NewPageZones returns an empty page-zone index of numCols physical
// columns with chunk slots per zone.
func NewPageZones(numCols int, chunk int64) *PageZones {
	if chunk < 1 {
		chunk = 1
	}
	return &PageZones{numCols: numCols, chunk: chunk}
}

// Update folds the next appended record buffer into the zone of its
// page. Calls run under the owning engine's lock, in slot order,
// mirroring ZoneMap.Update on the segment zone.
func (pz *PageZones) Update(schema *record.Schema, buf []byte) {
	pz.mu.Lock()
	idx := int(pz.rows / pz.chunk)
	for idx >= len(pz.zones) {
		pz.zones = append(pz.zones, NewZoneMap(pz.numCols))
	}
	z := pz.zones[idx]
	pz.rows++
	pz.mu.Unlock()
	z.Update(schema, buf)
}

// Zone returns the zone of chunk i (slots [i*chunk, (i+1)*chunk), the
// file's page i), or nil when out of range.
func (pz *PageZones) Zone(i int) *ZoneMap {
	pz.mu.Lock()
	defer pz.mu.Unlock()
	if i < 0 || i >= len(pz.zones) {
		return nil
	}
	return pz.zones[i]
}

// EnablePageZones builds the segment's in-memory page-zone index from
// the rows already on file and keeps it current on append. Idempotent;
// called under the owning engine's lock before the segment is visible
// to scans.
func (s *Segment) EnablePageZones() error {
	if s.pages != nil {
		return nil
	}
	pz := NewPageZones(s.Schema.NumColumns(), int64(s.File.PerPage()))
	err := s.File.Scan(0, s.File.Count(), func(_ int64, buf []byte) bool {
		pz.Update(s.Schema, buf)
		return true
	})
	if err != nil {
		return err
	}
	s.pages = pz
	return nil
}

// Pages returns the segment's page-zone index, or nil when the engine
// did not enable one.
func (s *Segment) Pages() *PageZones { return s.pages }
