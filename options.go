package decibel

import "decibel/internal/core"

// DefaultEngine is the storage engine Open creates a dataset with when
// WithEngine is not given. The hybrid scheme is the paper's headline
// design (Section 3.4).
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

// WithEngine selects the storage engine of a new dataset by name or
// alias: "tuple-first"/"tf", "version-first"/"vf" or "hybrid"/"hy". An
// existing dataset records its engine, and a reopen uses the recorded
// one whatever WithEngine says.
func WithEngine(name string) Option {
	return func(c *config) { c.engine = name }
}

// WithPageSize sets the heap page size in bytes of a new dataset
// (0 = default). The segment files are laid out in it, so the dataset
// records it and every later Open uses the recorded size.
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

// WithScanWorkers does nothing: every scan runs on the calling goroutine.
//
// Deprecated: kept only until benchmark/workloads.go and
// benchmark/ladder.go stop calling it.
func WithScanWorkers(int) Option { return func(*config) {} }

// WithCompaction does nothing: DB.Compact runs a pass on every
// dataset, whatever the option says.
//
// Deprecated: kept only until benchmark/workloads.go and
// benchmark/ladder.go stop calling it.
func WithCompaction(string) Option { return func(*config) {} }
