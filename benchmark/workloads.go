package main

import (
	"decibel"
)

// The timed end-to-end metrics, in report order (setup_s is timed too
// but once per load, not per block). Every workload reports all of
// them; BENCHMARK.json carries the same names with their bounds.
var timedMetrics = []string{
	"q1_scan_ms", "q2_diff_ms", "q3_join_ms", "q4_heads_ms", "groupby_ms",
	"point_us", "commit_ms", "merge_ms", "reopen_ms",
}

var readMetrics = timedMetrics[:6]

var units = map[string]string{
	"setup_s": "s", "q1_scan_ms": "ms", "q2_diff_ms": "ms", "q3_join_ms": "ms",
	"q4_heads_ms": "ms", "groupby_ms": "ms", "point_us": "us", "commit_ms": "ms",
	"merge_ms": "ms", "reopen_ms": "ms", "disk_bytes_per_user_byte": "B/B",
	"write_bytes_per_user_byte": "B/B", "allocs_per_read_op": "count",
	"alloc_kb_per_read_op": "KiB",
}

// workload is one row of the workload table. Everything that shapes a
// measurement is a constant here: dataset size, branching pattern,
// engine options, the number of operations in a block of each metric
// and the number of rounds a second of run length buys. Nothing is
// calibrated at run time, so the database state at block k is the same
// in every run and on both sides of a comparison.
//
// Sizes are what the benchmark contract's time cap affords: a run is
// about 20 s of rounds plus five loads, 92 runs in 57 minutes. Reopen costs
// O(heads x rows) on tuple-first and hybrid and every round has one, so
// the datasets are smaller than the paper's; version-first with a pool
// smaller than the data is 10-100x slower per operation, so its dataset
// is smaller again.
type workload struct {
	name, why string
	engine    string
	pattern   string // science | curation | flat
	rows      int    // base rows ingested by the mainline
	branches  int    // branches the pattern forks in set-up
	pool      int    // feature branches the merge blocks reuse
	editRows  int    // rows each set-up branch updates after forking

	pageSize, poolPages int  // 0 = the engine defaults (4 MB x 64)
	compaction          bool // open WithCompaction("manual")
	compactSetup        bool // one Compact() at the end of set-up
	served              bool // drive through decibel/client against NewServer
	compactEvery        int  // served: POST /v1/compact every n commits
	// q1Recent bounds Q1 to the newer half of the rows by ts, so that
	// zone maps have segments to prune.
	q1Recent bool

	// Operations per block, one block per metric per round.
	q1Ops, q2Ops, q3Ops, q4Ops, groupOps, pointOps, commitOps, mergeOps int

	commitRows  int // updates = inserts = deletes in one commit
	mergeRows   int // rows a feature branch changes before it is merged
	writeBlocks int // commit and merge blocks per round (reads get one)
	roundMs     int // one round on the reference sandbox: rounds = seconds / roundMs
}

var workloads = []*workload{
	{
		name:   "sci_hy_dcz",
		why:    "hybrid, science pattern, compacted into dcz segments (decoded at every open, cached after) and a ts range in Q1 for zone maps to prune; the query layer over decoded pages does the work",
		engine: "hybrid", pattern: "science", rows: 160000, branches: 12, pool: 2, editRows: 1500,
		compaction: true, compactSetup: true, q1Recent: true,
		q1Ops: 24, q2Ops: 8, q3Ops: 1, q4Ops: 6, groupOps: 2, pointOps: 20000, commitOps: 8, mergeOps: 4,
		commitRows: 100, mergeRows: 500, writeBlocks: 1, roundMs: 1250,
	},
	{
		name:   "cur_vf_raw",
		why:    "version-first, curation pattern with merges, raw pages, pool and lineage cache smaller than the data: lineage, caches and pool misses do the work; no dcz page and no pruned segment, by assertion",
		engine: "version-first", pattern: "curation", rows: 48000, branches: 10, pool: 2, editRows: 400,
		pageSize: 64 << 10, poolPages: 48,
		q1Ops: 5, q2Ops: 4, q3Ops: 2, q4Ops: 1, groupOps: 6, pointOps: 20, commitOps: 4, mergeOps: 1,
		commitRows: 100, mergeRows: 500, writeBlocks: 1, roundMs: 1150,
	},
	{
		name:   "flat_tf_write",
		why:    "tuple-first, 32 children off one commit (wide bitmap matrix), write blocks three times as often as read blocks: a read win paid for in commit, merge or bytes written shows here",
		engine: "tuple-first", pattern: "flat", rows: 48000, branches: 32, pool: 2, editRows: 1000,
		q1Ops: 20, q2Ops: 36, q3Ops: 2, q4Ops: 14, groupOps: 8, pointOps: 16000, commitOps: 2, mergeOps: 1,
		commitRows: 100, mergeRows: 500, writeBlocks: 3, roundMs: 1200,
	},
	{
		name:   "serve_hy_mixed",
		why:    "hybrid behind HTTP/JSON on loopback, one closed-loop connection of small requests: request decode, JSON encode and the client dominate, storage does little",
		engine: "hybrid", pattern: "science", rows: 100000, branches: 2, pool: 1, editRows: 1000,
		compaction: true, served: true, compactEvery: 50,
		q1Ops: 12, q2Ops: 15, q3Ops: 4, q4Ops: 12, groupOps: 4, pointOps: 120, commitOps: 24, mergeOps: 6,
		commitRows: 7, mergeRows: 100, writeBlocks: 1, roundMs: 1200,
	},
}

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// options are the workload's open options plus the fixed measurement
// policy: one scan worker, no fsync (the repo default and the paper's
// load-phase policy; bytes written are counted instead).
func (w *workload) options(extra ...decibel.Option) []decibel.Option {
	opts := []decibel.Option{
		decibel.WithEngine(w.engine), decibel.WithScanWorkers(1), decibel.WithFsync(false),
		decibel.WithPageSize(w.pageSize), decibel.WithPoolPages(w.poolPages),
	}
	if w.compaction {
		opts = append(opts, decibel.WithCompaction("manual"))
	}
	return append(opts, extra...)
}
