package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"decibel"
)

// Measurement protocol constants. They are part of the benchmark's
// definition, not flags: changing one changes what the numbers mean.
const (
	setupLoads = 5 // full loads into fresh directories; setup_s is their median
	minRounds  = 6 // rounds a run measures however slow the host is
	// checkRound is the round whose reopen the exact-count metrics are
	// read after, so they see the same database state in every run.
	checkRound = 5
)

// runConfig is how one run differs from the gated default; the smoke
// test shrinks it, the command line only picks seconds and trace.
type runConfig struct {
	seconds  float64
	loads    int
	rounds   int // smoke test only: this many timed rounds, ignoring seconds
	trace    bool
	traceOut string
	dataDir  string // parent directory for the run's datasets
}

// metric is one reported value with its block distribution.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	P95   float64 `json:"p95,omitempty"`
	Min   float64 `json:"min,omitempty"`
}

// report is one workload run.
type report struct {
	Workload    string               `json:"workload"`
	Seed        int64                `json:"seed"`
	Rounds      int                  `json:"rounds"`
	DataDir     string               `json:"data_dir"`
	ScriptSum   string               `json:"script_hash"`
	Attempted   int                  `json:"ops_attempted"`
	Failed      int                  `json:"ops_failed"`
	FirstErr    string               `json:"first_error,omitempty"`
	Metrics     map[string]metric    `json:"metrics"`      // end to end
	Layers      map[string]metric    `json:"layers"`       // per layer (traced run)
	Counts      map[string]int       `json:"counts"`       // exact result counts, for repeatability checks
	Series      map[string][]float64 `json:"series"`       // block means in run order, host-calibrated
	RawSeries   map[string][]float64 `json:"raw_series"`   // the same blocks as measured
	CalibSeries map[string][]float64 `json:"calib_series"` // calibration kernel time around each block, ms
	Elapsed     float64              `json:"elapsed_s"`    // whole run, set-up included
	Window      float64              `json:"window_s"`     // the timed rounds
}

type runner struct {
	w     *workload
	cfg   runConfig
	q     queries
	g     *generator
	s     *script
	reads []string // set-up branches the read blocks rotate over
	pool  []string // feature branches the merge blocks reuse
	t     target
	tr    *tracer

	attempted, failed int
	firstErr          string
	samples           map[string][]float64 // block means, host-calibrated
	raw               map[string][]float64 // the same blocks, as measured
	cal               *calibrator
	calibs            map[string][]float64 // mean bracketing kernel time per block, ms
	counts            map[string]int

	index  map[string]int  // branch -> creation index (the HEAD() scan's bit order)
	vers   map[string]int  // branch -> writes applied, for the expectation memo
	dirty  map[string]bool // heads written since they were last verified
	memo   map[string]memoEntry
	rotate int
	pointK int64   // position in the point-lookup key permutation
	poolK  int     // next feature branch to merge
	opNs   []int64 // durations of the current block's write ops

	// Traced runs only.
	vf0       [4]int64 // vf expvar counters when the timed rounds began
	q1Store   [5]int64 // store expvar counters summed over the timed Q1 blocks
	q1Queries int      // queries in those blocks
	reopenDec int64    // dcz pages decoded inside the timed reopen blocks
	calibBuf  []byte

	userBytes int64 // bytes committed by write blocks since the window opened
}

type memoEntry struct {
	stamp int
	res   result
}

// fail records a failed operation.
func (r *runner) fail(what string, err error) {
	r.failed++
	if r.firstErr == "" {
		r.firstErr = fmt.Sprintf("%s: %v", what, err)
	}
}

// check counts one read and compares it with the model.
func (r *runner) check(what string, got result, err error, want result) {
	r.attempted++
	if err != nil {
		r.fail(what, err)
	} else if got != want {
		r.fail(what, fmt.Errorf("got %d rows checksum %x, model has %d rows checksum %x", got.n, got.sum, want.n, want.sum))
	}
}

// checkGroups counts one grouped read and compares it with the model.
func (r *runner) checkGroups(what string, got *groups, err error, want *groups) {
	r.attempted++
	if err != nil {
		r.fail(what, err)
	} else if !got.equal(want) {
		r.fail(what, fmt.Errorf("groups differ from the model"))
	}
}

// do applies one write op to the target and counts it.
func (r *runner) do(o op) { r.doOn(r.t, o) }

func (r *runner) doOn(t target, o op) {
	r.attempted++
	if err := t.apply(o); err != nil {
		r.fail(fmt.Sprintf("op kind %d on %s", o.kind, o.branch), err)
	}
	if o.kind == opCommit || o.kind == opMerge {
		r.vers[o.branch]++
		r.dirty[o.branch] = true
	}
	if o.kind == opBranch {
		r.index[o.branch] = len(r.index)
		r.dirty[o.branch] = true
	}
}

// want memoizes a model expectation until one of the branches it reads
// is written again.
func (r *runner) want(key string, deps []string, compute func() result) result {
	stamp := 0
	for _, d := range deps {
		stamp += r.vers[d] // counters only grow, so the sum changes iff one did
	}
	if e, ok := r.memo[key]; ok && e.stamp == stamp {
		return e.res
	}
	res := compute()
	r.memo[key] = memoEntry{stamp, res}
	return res
}

// verifyHead compares one branch head with the model through a grouped
// aggregation: per category the row count and the exact sums of ts (pk
// and version sensitive), qty and amt.
func (r *runner) verifyHead(branch string) {
	got, err := r.t.groupBy(branch, true)
	r.checkGroups("verify "+branch, got, err, r.wantGroups(branch))
	delete(r.dirty, branch)
}

func (r *runner) verifyAll() {
	for _, b := range r.s.m.order {
		r.verifyHead(b)
	}
}

// verifyDirty runs after every reopen: every head written since its
// last check must read back equal to the model — an acknowledged commit
// that a restart loses is a failed operation — plus one unwritten head
// in rotation. All heads are verified after set-up and at exit.
func (r *runner) verifyDirty() {
	for _, b := range r.s.m.order {
		if r.dirty[b] {
			r.verifyHead(b)
		}
	}
	r.rotate++
	r.verifyHead(r.s.m.order[r.rotate%len(r.s.m.order)])
}

// pick spreads n choices evenly over names.
func pick(names []string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = names[i*len(names)/n%len(names)]
	}
	return out
}

// block is one fixed-count batch of same-shape operations. prepare
// does the untimed part (expectations, the writes a merge needs first)
// and returns the operation count and the timed part; a block of
// several cycles repeats the pair and sums the timed parts.
type block struct {
	metric  string
	perOp   float64 // ns per op -> the metric's unit
	cycles  int
	prepare func() (ops int, timed func())
}

// timedOp applies one write op and keeps its duration: commits and
// merges are sampled per operation, not per block. Their latency on a
// shared disk has a heavy tail (journal commits, discards) that a block
// mean inherits and a median of operations does not.
func (r *runner) timedOp(o op) {
	t0 := time.Now()
	r.do(o)
	r.opNs = append(r.opNs, time.Since(t0).Nanoseconds())
}

func (r *runner) blocks() []block {
	w, q, master := r.w, r.q, decibel.Master
	all := append([]string{master}, r.reads...)
	q1 := pick(all, w.q1Ops)
	q2 := pick(r.reads, w.q2Ops)
	q3 := pick(r.reads, w.q3Ops)
	pt := pick(all, 4)

	// perBranch is a block of one read per branch of a fixed list: the
	// expectations come from the memo, the counts go to r.counts[key].
	perBranch := func(metric, key string, branches []string, vsMaster bool, want func(b string) result, run func(b string) (result, error)) block {
		return block{metric, 1e-6, 1, func() (int, func()) {
			wants := make([]result, len(branches))
			for i, b := range branches {
				deps := []string{b}
				if vsMaster {
					deps = append(deps, master)
				}
				wants[i] = r.want(key+"/"+b, deps, func() result { return want(b) })
			}
			return len(branches), func() {
				rows := 0
				for i, b := range branches {
					got, err := run(b)
					r.check(key+" on "+b, got, err, wants[i])
					rows += got.n
				}
				r.counts[key] += rows
			}
		}}
	}
	reads := []block{
		perBranch("q1_scan_ms", "q1", q1, false,
			func(b string) result { return r.wantScan(b, q.q1, q.limit) },
			func(b string) (result, error) { return r.t.scan(b, q.q1, q.limit) }),
		perBranch("q2_diff_ms", "q2", q2, true,
			func(b string) result { return r.wantDiff(b, master, q.q2, q.limit) },
			func(b string) (result, error) { return r.t.diff(b, master, q.q2, q.limit) }),
		perBranch("q3_join_ms", "q3", q3, true,
			func(b string) result { return r.wantJoin(b, master, q.q3) },
			func(b string) (result, error) { return r.t.join(b, master, q.q3) }),
		{"q4_heads_ms", 1e-6, 1, func() (int, func()) {
			want := r.want("q4", r.s.m.order, func() result { return r.wantHeads(q.q4) })
			return w.q4Ops, func() {
				for i := 0; i < w.q4Ops; i++ {
					got, err := r.t.heads(q.q4, r.index)
					r.check("q4 heads", got, err, want)
					r.counts["q4"] += got.n
				}
			}
		}},
		{"groupby_ms", 1e-6, 1, func() (int, func()) {
			want := r.wantGroups(master)
			for i := range want {
				want[i].ts, want[i].qty = 0, 0
			}
			return w.groupOps, func() {
				for i := 0; i < w.groupOps; i++ {
					got, err := r.t.groupBy(master, false)
					r.checkGroups("groupby on master", got, err, want)
				}
			}
		}},
		{"point_us", 1e-3, 1, func() (int, func()) {
			keys := make([]int64, w.pointOps)
			wants := make([]result, w.pointOps)
			for i := range keys {
				r.pointK = (r.pointK + 7919) % int64(w.rows)
				keys[i] = r.pointK
				wants[i] = r.wantPoint(pt[i%len(pt)], keys[i])
			}
			return len(keys), func() {
				rows := 0
				for i, pk := range keys {
					got, err := r.t.point(pt[i%len(pt)], pk)
					r.check("point lookup", got, err, wants[i])
					rows += got.n
				}
				r.counts["point"] += rows
			}
		}},
	}
	commit := block{"commit_ms", 1e-6, 1, func() (int, func()) {
		ops := make([]op, w.commitOps)
		for i := range ops {
			ops[i] = r.s.edit(master, w.commitRows, w.commitRows, w.commitRows)
			r.userBytes += userBytes(r.g, ops[i])
		}
		return len(ops), func() {
			for _, o := range ops {
				r.timedOp(o)
			}
		}
	}}
	merge := block{"merge_ms", 1e-6, w.mergeOps, func() (int, func()) {
		// Untimed: bring the next feature branch level with its parent
		// and give it mergeRows changed rows in its own lane. Timed: the
		// merge call only.
		p := r.pool[r.poolK%len(r.pool)]
		r.poolK++
		r.do(r.s.merge(p, master))
		o := r.s.edit(p, w.mergeRows*8/10, w.mergeRows/10, w.mergeRows/10)
		r.userBytes += userBytes(r.g, o)
		r.do(o)
		o = r.s.merge(master, p)
		return 1, func() { r.timedOp(o) }
	}}
	// Spread the write blocks evenly among the read blocks, commits and
	// merges apart: the reads between a commit block and the next merge
	// see a head that moved within its segment (version-first resolves
	// it from the cached one by its deltas), the reads after a merge a
	// new head segment.
	var out []block
	commits, merges := 0, 0
	for i, b := range reads {
		out = append(out, b)
		// The k-th commit block goes a quarter into the k-th of writeBlocks
		// equal parts of the round, the k-th merge block three quarters.
		for ; (4*commits+1)*len(reads) <= 4*(i+1)*w.writeBlocks; commits++ {
			out = append(out, commit)
		}
		for ; (4*merges+3)*len(reads) <= 4*(i+1)*w.writeBlocks; merges++ {
			out = append(out, merge)
		}
	}
	return out
}

func userBytes(g *generator, o op) int64 {
	var n int64
	for _, w := range o.writes {
		if w.st == stateDead {
			n += 8
		} else {
			n += int64(g.schema.RecordSize())
		}
	}
	return n
}

// record keeps a block's mean time per operation, host-calibrated (the
// gated value) and raw.
func (r *runner) record(name string, raw float64, t *timing) {
	r.samples[name] = append(r.samples[name], raw*t.scale())
	r.raw[name] = append(r.raw[name], raw)
	r.calibs[name] = append(r.calibs[name], t.calib/float64(t.n))
}

// timeBlock runs one block and records its mean time per operation.
func (r *runner) timeBlock(b block, record bool) {
	end := r.tr.span("block." + b.metric)
	var ops int
	var t timing
	r.opNs = r.opNs[:0]
	// The traced run counts what the store did for the timed Q1 blocks
	// themselves, not for a replay of them on warmed-up segments.
	countStore := r.tr != nil && record && b.metric == "q1_scan_ms"
	var store0 [5]int64
	if countStore {
		store0 = storeSnapshot()
	}
	for c := 0; c < b.cycles; c++ {
		n, timed := b.prepare()
		r.s.take()
		r.cal.measure(&t, timed)
		ops += n
	}
	end()
	if countStore {
		for i, v := range storeSnapshot() {
			r.q1Store[i] += v - store0[i]
		}
		r.q1Queries += ops
	}
	switch {
	case !record:
	case len(r.opNs) > 0:
		for _, ns := range r.opNs {
			r.record(b.metric, float64(ns)*b.perOp, &t)
		}
	default:
		r.record(b.metric, float64(t.busy.Nanoseconds())/float64(ops)*b.perOp, &t)
	}
	if s, ok := r.t.(*served); ok && s.compactDue() {
		r.attempted++
		if err := s.compact(); err != nil {
			r.fail("POST /v1/compact", err)
		}
	}
}

func (r *runner) reopenBlock(record bool) {
	want := r.s.m.liveRows(decibel.Master)
	end := r.tr.span("block.reopen_ms")
	var t timing
	var n int
	var err error
	dec0 := expInt("decibel.compressed_page_decodes")
	r.cal.measure(&t, func() { n, err = r.t.reopen() })
	end()
	r.check("reopen", result{n: n}, err, result{n: want})
	if record {
		r.record("reopen_ms", float64(t.busy.Nanoseconds())*1e-6, &t)
		r.reopenDec += expInt("decibel.compressed_page_decodes") - dec0
	}
}

// round is one pass over every metric: the reopen block, the
// verification every reopen is followed by, then one block per read
// metric with the write blocks spread between them.
func (r *runner) round(blocks []block, record bool, afterReopen func() error) error {
	r.reopenBlock(record)
	if afterReopen != nil {
		if err := afterReopen(); err != nil {
			return err
		}
	}
	r.verifyDirty()
	for _, b := range blocks {
		r.timeBlock(b, record)
	}
	return nil
}

// load replays the set-up script into a fresh dataset under dir.
func (r *runner) load(dir string, ops []op) (*facade, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var t timing
	var f *facade
	var err error
	r.cal.measure(&t, func() {
		if f, err = create(dir, r.w.options(), r.g, r.tr); err != nil {
			return
		}
		for _, o := range ops {
			r.attempted++
			if err = f.apply(o); err != nil {
				err = fmt.Errorf("set-up op on %s: %w", o.branch, errors.Join(err, f.close()))
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	r.record("setup_s", t.busy.Seconds(), &t)
	return f, nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// procIO reads one counter of /proc/self/io.
func procIO(key string) (int64, error) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, key+": "); ok {
			return strconv.ParseInt(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/self/io has no %s", key)
}

// distinctLive counts the distinct live row versions across all heads:
// the user data the store has to keep readable.
func (m *model) distinctLive() int64 {
	var n int64
	m.versions(func(int64, int32, uint64) { n++ })
	return n
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// summarize turns block means into the run's value: their median, with
// p95 and min as ungated companions.
func summarize(samples []float64, unit string) metric {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return metric{Value: quantile(s, 0.5), Unit: unit, N: len(s), P95: quantile(s, 0.95), Min: quantile(s, 0)}
}

// runWorkload is one complete run: generate, set up, measure, verify.
func runWorkload(w *workload, seed int64, cfg runConfig) (rep *report, err error) {
	started := time.Now()
	// Single-threaded gated runs: on a shared 2-vCPU box a second P
	// doubles the run-to-run spread and does not make Q1 faster.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	r := &runner{
		w: w, cfg: cfg, q: queriesFor(w), g: newGenerator(seed, w.rows),
		samples: map[string][]float64{}, raw: map[string][]float64{}, calibs: map[string][]float64{}, counts: map[string]int{}, cal: newCalibrator(),
		index: map[string]int{decibel.Master: 0}, vers: map[string]int{},
		dirty: map[string]bool{}, memo: map[string]memoEntry{},
	}
	if cfg.trace {
		r.tr = newTracer()
	}
	r.s = newScript(r.g, w)
	r.reads = r.s.load(w)
	loadOps := r.s.take()
	for i := 0; i < w.pool; i++ {
		r.pool = append(r.pool, fmt.Sprintf("pool%d", i))
	}
	for i, b := range r.s.m.order {
		r.index[b] = i
	}
	rep = &report{
		Workload: w.name, Seed: seed, ScriptSum: fmt.Sprintf("%016x", hashOps(r.g, loadOps)),
		Metrics: map[string]metric{}, Layers: map[string]metric{},
	}

	root, err := os.MkdirTemp(cfg.dataDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	rep.DataDir = root
	defer os.RemoveAll(root)

	// Set-up: full loads into fresh directories, the last one kept.
	var f *facade
	for i := 0; i < cfg.loads; i++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(f.dir); err != nil {
				return nil, err
			}
		}
		if f, err = r.load(filepath.Join(root, fmt.Sprintf("load%d", i)), loadOps); err != nil {
			return nil, err
		}
	}
	r.t = f
	if w.served {
		s, err := serve(f, w.compactEvery)
		if err != nil {
			return nil, errors.Join(err, f.close())
		}
		r.t = s
	}
	defer func() {
		if cerr := r.t.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	r.verifyAll()

	// One untimed warm-up round, then the allocation count over one
	// full read cycle: the state is the same in every run, so the
	// counts repeat.
	blocks := r.blocks()
	if err := r.round(blocks, false, nil); err != nil {
		return nil, err
	}
	var readOps int
	var cycle []func()
	for _, b := range blocks {
		if isRead(b.metric) {
			ops, timed := b.prepare()
			readOps += ops
			cycle = append(cycle, timed)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, timed := range cycle {
		timed()
	}
	runtime.ReadMemStats(&m1)
	rep.Metrics["allocs_per_read_op"] = metric{Value: float64(m1.Mallocs-m0.Mallocs) / float64(readOps), Unit: units["allocs_per_read_op"], N: readOps}
	rep.Metrics["alloc_kb_per_read_op"] = metric{Value: float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(readOps), Unit: units["alloc_kb_per_read_op"], N: readOps}

	// Timed rounds, every metric's block once (write blocks writeBlocks
	// times) per round, so each metric samples the whole window.
	wchar0, err := procIO("wchar")
	if err != nil {
		return nil, err
	}
	r.userBytes = 0
	r.vf0 = vfSnapshot()
	check := checkRound
	if cfg.rounds > 0 {
		check = min(check, cfg.rounds)
	}
	// The round count follows from -seconds and the workload table alone,
	// never from how fast the host is, so the database state at every
	// block is the same in every run.
	rep.Rounds = cfg.rounds
	if rep.Rounds == 0 {
		rep.Rounds = max(minRounds, int(cfg.seconds*1000)/w.roundMs)
	}
	t0 := time.Now()
	for round := 1; round <= rep.Rounds; round++ {
		var exact func() error
		if round == check {
			exact = func() error { return r.exactCounts(rep, f.dir, wchar0) }
		}
		if err := r.round(blocks, true, exact); err != nil {
			return nil, err
		}
		if cfg.trace {
			r.calibrate()
		}
	}
	rep.Window = time.Since(t0).Seconds()
	r.reopenBlock(false)
	r.verifyAll()

	for _, name := range append([]string{"setup_s"}, timedMetrics...) {
		rep.Metrics[name] = summarize(r.samples[name], units[name])
	}
	if cfg.trace {
		if err := r.layers(rep, root); err != nil {
			return nil, err
		}
	}
	rep.Attempted, rep.Failed, rep.FirstErr, rep.Counts = r.attempted, r.failed, r.firstErr, r.counts
	rep.Series, rep.RawSeries, rep.CalibSeries = r.samples, r.raw, r.calibs
	rep.Elapsed = time.Since(started).Seconds()
	return rep, nil
}

func isRead(name string) bool { return slices.Contains(readMetrics, name) }

// exactCounts reads the size metrics right after a reopen, when the
// data directory holds everything the run has written so far.
func (r *runner) exactCounts(rep *report, dir string, wchar0 int64) error {
	disk, err := dirBytes(dir)
	if err != nil {
		return err
	}
	wchar, err := procIO("wchar")
	if err != nil {
		return err
	}
	rec := int64(r.g.schema.RecordSize())
	rep.Metrics["disk_bytes_per_user_byte"] = metric{Value: float64(disk) / float64(r.s.m.distinctLive()*rec), Unit: "B/B", N: 1}
	rep.Metrics["write_bytes_per_user_byte"] = metric{Value: float64(wchar-wchar0) / float64(max(r.userBytes, 1)), Unit: "B/B", N: 1}
	return nil
}
