package decibel

import "decibel/internal/core"

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

// WithPoolPages sets the buffer pool capacity in frames (0 = default).
// A frame holds at most one page and only as many bytes as its page
// holds, so the pool's memory bound is still pages times the page size.
func WithPoolPages(pages int) Option {
	return func(c *config) { c.opt.PoolPages = pages }
}

// WithFsync enables fsync on commit: the engines sync their commit logs
// and heap files, and then the version graph syncs the commit's record
// in its write-ahead log before Commit returns, so an acknowledged
// commit survives a power loss in the graph as well as in the engines.
// The graph's checkpoints sync the snapshot before renaming it into
// place and the directory after. It is off by default, matching the
// paper's load phase; without it an acknowledged commit still survives
// a crash of the process, whose writes all reach the files before
// Commit returns, but not a power loss.
func WithFsync(on bool) Option {
	return func(c *config) { c.opt.Fsync = on }
}

// WithScanWorkers sets the parallel scan pool size. The default (0)
// takes GOMAXPROCS; 1 disables parallel scans.
func WithScanWorkers(n int) Option {
	return func(c *config) { c.opt.ScanWorkers = n }
}

// WithCompaction turns compaction on with mode "manual": a pass, which
// re-encodes frozen segments into compressed pages, runs on DB.Compact,
// the CLI's `compact` subcommand or the server's /v1/compact endpoint.
// Any other mode, "off" (the default) included, leaves compaction off
// and DB.Compact a no-op. For periodic passes, call DB.Compact from a
// time.Ticker.
func WithCompaction(mode string) Option {
	return func(c *config) { c.opt.Compaction = mode == "manual" }
}
