package decibel

// WithoutLineageCache turns the version-first lineage cache off, so
// every resolution re-walks the branch lineage: the reference the
// cache-equivalence tests compare a cached engine against.
func WithoutLineageCache() Option {
	return func(c *config) { c.opt.VFLineageCacheOff = true }
}
