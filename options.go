package decibel

import (
	"time"

	"decibel/internal/compact"
	"decibel/internal/core"
)

// DefaultEngine is the storage engine Open uses when WithEngine is not
// given. The hybrid scheme is the paper's headline design (Section 3.4).
const DefaultEngine = "hybrid"

type config struct {
	engine string
	opt    core.Options
}

func newConfig(opts []Option) config {
	cfg := config{engine: DefaultEngine}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Option configures Open.
type Option func(*config)

// WithEngine selects the storage engine by registered name or alias:
// "tuple-first"/"tf", "version-first"/"vf" or "hybrid"/"hy".
func WithEngine(name string) Option {
	return func(c *config) { c.engine = name }
}

// WithPageSize sets the heap page size in bytes (0 = default).
func WithPageSize(bytes int) Option {
	return func(c *config) { c.opt.PageSize = bytes }
}

// WithPoolPages sets the buffer pool capacity in pages (0 = default).
func WithPoolPages(pages int) Option {
	return func(c *config) { c.opt.PoolPages = pages }
}

// WithFsync enables fsync on commit: the engines sync their commit logs
// and heap files, and then the version graph syncs the commit's record
// in its write-ahead log before Commit returns, so an acknowledged
// commit survives a power loss in the graph as well as in the engines.
// The graph's checkpoints sync the snapshot before renaming it into
// place and the directory after. It is off by default, matching the
// paper's load phase.
func WithFsync(on bool) Option {
	return func(c *config) { c.opt.Fsync = on }
}

// WithScanWorkers sets the parallel scan pool size. The default (0)
// takes GOMAXPROCS; 1 disables parallel scans.
func WithScanWorkers(n int) Option {
	return func(c *config) { c.opt.ScanWorkers = n }
}

// WithCompaction enables the background compaction subsystem with page
// compression on: "manual" runs a pass only on DB.Compact (or the CLI
// `compact` subcommand / the server's /v1/compact endpoint), "auto"
// additionally runs passes on a background ticker, and "off" (the
// default) disables compaction entirely. Unknown modes read as "off".
func WithCompaction(mode string) Option {
	return func(c *config) {
		switch mode {
		case "manual":
			c.opt.Compaction.Mode = compact.ModeManual
		case "auto":
			c.opt.Compaction.Mode = compact.ModeAuto
		default:
			c.opt.Compaction.Mode = compact.ModeOff
		}
	}
}

// WithCompactionInterval sets the auto-mode compaction ticker period
// (0 = default 5s). It has no effect outside auto mode.
func WithCompactionInterval(d time.Duration) Option {
	return func(c *config) { c.opt.Compaction.Interval = d }
}

// WithCompactionFailPoint injects a crash point into every compaction
// pass: "after-temp" aborts after new segment files are written and
// fsynced but before the catalog swap, "before-unlink" after the swap
// but before replaced files are unlinked. The pass fails with an error
// compact.ErrFailPoint recognizes and disk is left exactly as a crash
// there would leave it — the crash-recovery tests reopen and verify.
// An empty string (the default) disables injection.
func WithCompactionFailPoint(point string) Option {
	return func(c *config) { c.opt.Compaction.FailPoint = point }
}
