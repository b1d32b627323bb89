package decibel

import "decibel/internal/core"

// EngineFactory resolves an engine name or alias as Open does: the
// paper harness (bench_test.go) loads its datasets through
// internal/bench, which takes the factory itself.
func EngineFactory(name string) (core.Factory, error) { return lookupEngine(name) }

// WithoutLineageCache turns the version-first lineage cache off, so
// every resolution re-walks the branch lineage: the reference the
// cache-equivalence tests compare a cached engine against.
func WithoutLineageCache() Option {
	return func(c *config) { c.opt.VFLineageCacheOff = true }
}

// WithCompactionFailPoint injects a crash point into every compaction
// pass: "after-temp" aborts after new segment files are written and
// fsynced but before the catalog swap, "before-unlink" after the swap
// but before replaced files are unlinked. The pass fails with an error
// store.ErrFailPoint recognizes and disk is left exactly as a crash
// there would leave it — the crash-recovery tests reopen and verify.
func WithCompactionFailPoint(point string) Option {
	return func(c *config) { c.opt.CompactionFailPoint = point }
}

// DeclaredJoinOrder pins join execution to the order the relations
// were composed in, bypassing the greedy zone-map ordering: the
// reference the join equivalence tests hold the greedy order to.
func (q *Query) DeclaredJoinOrder() *Query {
	q.plan.NoReorder = true
	return q
}
