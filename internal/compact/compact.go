// Package compact defines the background compaction subsystem's shared
// vocabulary: the options a compaction pass runs under, the statistics
// it reports, the crash-injection fail points the recovery tests drive,
// and the process-wide expvar counters. The engine-specific passes live
// with their engines (each owns its own catalog invariants); this
// package is what the core layer, the facade options, the CLI and the
// server all speak.
//
// A compaction pass over one table does one thing, the same in every
// engine: frozen segments re-encode in place into per-column compressed
// pages (store.EncDCZ) — dictionary for low-cardinality values,
// delta+varint for int64 — read back transparently via the SegMeta
// encoding tag. Slot numbering is preserved, so no bitmap, commit log
// or version-index entry changes.
//
// Crash safety follows the catalog-swap discipline of the segment
// catalog's one compaction loop (store.Catalog.Compact): new segment
// content is written under fresh filenames and fsynced, the catalog is
// written to a temp file and renamed (the commit point), and only then
// are replaced files unlinked — after the last pinned reader drains. A
// crash before the rename leaves orphan files the catalog sweeps on
// open; a crash after it leaves orphans of the old files, swept the
// same way.
package compact

import (
	"expvar"
	"sync/atomic"
	"time"
)

// Mode selects when compaction runs.
type Mode int

const (
	// ModeOff disables compaction entirely.
	ModeOff Mode = iota
	// ModeManual compacts only when explicitly requested
	// (Database.Compact, the CLI subcommand, or the server endpoint).
	ModeManual
	// ModeAuto additionally runs passes on a background ticker.
	ModeAuto
)

func (m Mode) String() string {
	switch m {
	case ModeManual:
		return "manual"
	case ModeAuto:
		return "auto"
	}
	return "off"
}

// Fail points for crash-injection tests: a pass aborts (ErrFailPoint)
// at the named point, leaving disk in the state a crash there would.
const (
	// FailAfterTemp aborts after new segment content is written and
	// fsynced but before the catalog swap — the crash window where the
	// new files are orphans.
	FailAfterTemp = "after-temp"
	// FailBeforeUnlink completes the pass — catalog swapped, in-memory
	// state updated — but skips unlinking the replaced files, the
	// crash window where the old files are orphans.
	FailBeforeUnlink = "before-unlink"
)

// Options configures a compaction pass.
type Options struct {
	// Mode gates the pass; ModeOff makes every pass a no-op.
	Mode Mode
	// Interval is the auto-mode ticker period (0 = a default).
	Interval time.Duration
	// FailPoint, when set to one of the Fail* constants, aborts the
	// pass at that point for crash-injection tests.
	FailPoint string
}

// Defaults fills the zero fields with their defaults.
func (o Options) Defaults() Options {
	if o.Interval <= 0 {
		o.Interval = 5 * time.Second
	}
	return o
}

// ErrFailPoint is returned by a pass that aborted at an injected fail
// point; disk is left exactly as a crash at that point would leave it.
type failPointError string

func (e failPointError) Error() string {
	return "compact: aborted at injected fail point " + string(e)
}

// ErrFailPoint reports whether err is a fail-point abort.
func ErrFailPoint(err error) bool {
	_, ok := err.(failPointError)
	return ok
}

// FailPointErr builds the abort error for the named fail point.
func FailPointErr(point string) error { return failPointError(point) }

// Stats is what one compaction pass accomplished.
type Stats struct {
	// SegmentsCompressed counts segments re-encoded to compressed pages.
	SegmentsCompressed int64
	// PagesCompressed counts compressed pages written.
	PagesCompressed int64
	// BytesReclaimed is the net on-disk shrink: bytes of replaced
	// files minus bytes of their replacements.
	BytesReclaimed int64
}

// Add folds another pass's stats into s.
func (s *Stats) Add(o Stats) {
	s.SegmentsCompressed += o.SegmentsCompressed
	s.PagesCompressed += o.PagesCompressed
	s.BytesReclaimed += o.BytesReclaimed
}

// Zero reports whether the pass changed nothing.
func (s Stats) Zero() bool { return s == Stats{} }

// Process-wide compaction counters (expvar "decibel.compactions",
// ".bytes_reclaimed", ".compressed_pages"): the
// server's smoke test asserts they move when a compaction is
// triggered mid-load.
var (
	compactions     atomic.Int64
	bytesReclaimed  atomic.Int64
	compressedPages atomic.Int64
)

func init() {
	expvar.Publish("decibel.compactions", expvar.Func(func() any { return compactions.Load() }))
	expvar.Publish("decibel.bytes_reclaimed", expvar.Func(func() any { return bytesReclaimed.Load() }))
	expvar.Publish("decibel.compressed_pages", expvar.Func(func() any { return compressedPages.Load() }))
}

// CountRun folds one completed pass into the process-wide counters.
func CountRun(s Stats) {
	compactions.Add(1)
	bytesReclaimed.Add(s.BytesReclaimed)
	compressedPages.Add(s.PagesCompressed)
}
