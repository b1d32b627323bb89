// Package bench is the public face of the paper's benchmark harness
// (Section 5): deterministic dataset generators for the deep, flat,
// science and curation branching strategies, resolved over any
// registered storage engine by name. The root bench_test.go harness
// drives the paper's experiments through this package.
package bench

import (
	_ "decibel" // link the storage engines into the registry

	ibench "decibel/internal/bench"
	"decibel/internal/core"
)

// Branching strategies (Section 5.1).
type Strategy = ibench.Strategy

const (
	Deep     = ibench.Deep     // one long chain of branches
	Flat     = ibench.Flat     // many children off one mainline commit
	Science  = ibench.Science  // analysts fork snapshots and retire
	Curation = ibench.Curation // dev/feature branches merge back
)

// Config sets a generated dataset's shape: strategy, branch count,
// operations per branch, record size, update mix, commit cadence.
type Config = ibench.Config

// Dataset is a loaded benchmark dataset plus the handles the
// experiments address (mainline, children, active/retired branches,
// commits, merge samples).
type Dataset = ibench.Dataset

// MergeSample records the stats and latency of one merge performed
// during loading.
type MergeSample = ibench.MergeSample

// Options tunes the storage engine under test; the zero value gives
// defaults.
type Options = core.Options

// DefaultConfig returns the paper-shaped defaults for a strategy.
func DefaultConfig(s Strategy) Config { return ibench.DefaultConfig(s) }

// Load builds a dataset at dir with the named engine ("tuple-first",
// "version-first", "hybrid" or an alias) and returns it ready for
// measurement. Unknown engine names return an error wrapping
// decibel.ErrUnknownEngine.
func Load(dir, engine string, opt Options, cfg Config) (*Dataset, error) {
	factory, err := core.LookupEngine(engine)
	if err != nil {
		return nil, err
	}
	return ibench.Load(dir, factory, opt, cfg)
}
