// Package decibel_test holds the paper's evaluation harness, which
// regenerates every table and figure of Section 5 at laptop scale. Each
// BenchmarkFigureN / BenchmarkTableN corresponds to one figure or
// table, and its doc comment states the shape the paper reports;
// sub-benchmark names carry the engine, strategy and parameters, and
// custom metrics report rows returned and the paper's units (sizes,
// commit/checkout latencies, merge MB/s). Run one experiment with
//
//	go test -run=NONE -bench=BenchmarkFigure6a -benchtime=1x .
//
// Scale note: the paper loads 100 GB; we load megabytes with the same
// record layout (fixed-width integer columns), update mix (20%), commit
// cadence ratios and branching structures, and compare shapes rather
// than absolute numbers.
package decibel_test

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"decibel"
	"decibel/internal/bench"
	"decibel/internal/core"
	"decibel/internal/gitstore"
)

// engines under comparison, in the paper's order (short engine
// aliases).
var engines = []string{"vf", "tf", "hy"}

// loadDataset builds a dataset at dir with the named engine (a name or
// alias, as WithEngine takes) under the storage tuning every benchmark
// engine runs with.
func loadDataset(dir, engine string, cfg bench.Config) (*bench.Dataset, error) {
	factory, err := decibel.EngineFactory(engine)
	if err != nil {
		return nil, err
	}
	return bench.Load(dir, factory, core.Options{PageSize: 64 << 10, PoolPages: 256}, cfg)
}

// benchConfig mirrors the paper's knobs at reduced scale: 256-byte
// records of 4-byte columns, 20% updates, commits every 1/5 of a
// branch's operations.
func benchConfig(s bench.Strategy, branches, perBranch int) bench.Config {
	cfg := bench.DefaultConfig(s)
	cfg.Branches = branches
	cfg.RecordsPerBranch = perBranch
	cfg.RecordBytes = 256
	cfg.CommitEvery = perBranch / 5
	if cfg.CommitEvery < 1 {
		cfg.CommitEvery = 1
	}
	cfg.ScienceLifetime = perBranch * 2
	cfg.CurationDevOps = perBranch
	cfg.CurationFeatOps = perBranch / 4
	return cfg
}

// Dataset cache: figures reuse loaded datasets across sub-benchmarks.
var (
	dsMu    sync.Mutex
	dsCache = map[string]*bench.Dataset{}
	dsDirs  []string
)

func getDataset(b *testing.B, engine string, cfg bench.Config) *bench.Dataset {
	b.Helper()
	key := fmt.Sprintf("%s/%s/b%d/r%d/cl%v/3w%v", engine, cfg.Strategy, cfg.Branches, cfg.RecordsPerBranch, cfg.Clustered, cfg.ThreeWayMerges)
	dsMu.Lock()
	defer dsMu.Unlock()
	if d, ok := dsCache[key]; ok {
		return d
	}
	dir, err := os.MkdirTemp("", "decibel-bench-*")
	if err != nil {
		b.Fatal(err)
	}
	dsDirs = append(dsDirs, dir)
	d, err := loadDataset(dir, engine, cfg)
	if err != nil {
		b.Fatal(err)
	}
	dsCache[key] = d
	return d
}

func TestMain(m *testing.M) {
	baseline := runtime.NumGoroutine()
	code := m.Run()
	dsMu.Lock()
	for _, d := range dsCache {
		d.Close()
	}
	for _, dir := range dsDirs {
		os.RemoveAll(dir)
	}
	dsMu.Unlock()
	// Goroutine-leak gate: once every test's databases are closed the
	// goroutine count must settle back to the pre-run baseline (small
	// tolerance for lazily started runtime/testing goroutines).
	if code == 0 {
		if got := settledGoroutines(baseline+4, 10*time.Second); got > baseline+4 {
			fmt.Fprintf(os.Stderr, "goroutine leak: %d at start, %d after all tests settled\n", baseline, got)
			code = 1
		}
	}
	os.Exit(code)
}

// benchDB wraps a benchmark dataset in the facade, so the experiments
// run the paper's queries through the same builder applications use.
func benchDB(d *bench.Dataset) *decibel.DB { return &decibel.DB{Database: d.DB} }

// branchName resolves one of the dataset's branch handles to its name.
func branchName(b *testing.B, d *bench.Dataset, id decibel.BranchID) string {
	b.Helper()
	br, ok := d.DB.Graph().Branch(id)
	if !ok {
		b.Fatalf("no branch %d", id)
	}
	return br.Name
}

// drain runs a row iterator to completion and returns the row count.
func drain[T any](b *testing.B, rows iter.Seq[T], errf func() error) int {
	b.Helper()
	n := 0
	for range rows {
		n++
	}
	if err := errf(); err != nil {
		b.Fatal(err)
	}
	return n
}

// scanBranch runs Query 1 and returns the records scanned.
func scanBranch(b *testing.B, d *bench.Dataset, br decibel.BranchID) int {
	b.Helper()
	rows, errf := benchDB(d).Query("r").On(branchName(b, d, br)).Rows()
	return drain(b, rows, errf)
}

// checkout reads one commit whole and returns the records scanned.
func checkout(b *testing.B, d *bench.Dataset, c *decibel.Commit) int {
	b.Helper()
	rows, errf := benchDB(d).Query("r").On(branchName(b, d, c.Branch)).AtCommit(c.ID).Rows()
	return drain(b, rows, errf)
}

// scanHeads runs Query 4 under a predicate and returns the records
// scanned.
func scanHeads(b *testing.B, d *bench.Dataset, where decibel.Expr) int {
	b.Helper()
	n := 0
	rows, errf := benchDB(d).Query("r").Heads().Where(where).Annotated()
	for range rows {
		n++
	}
	if err := errf(); err != nil {
		b.Fatal(err)
	}
	return n
}

// benchRows times query b.N times and reports the rows one run returns,
// so each latency reads against the result size behind it.
func benchRows(b *testing.B, query func() int) {
	b.Helper()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n = query()
	}
	b.ReportMetric(float64(n), "rows")
}

// BenchmarkFigure6a — Figure 6a: Query 1 (single-branch scan) on the
// flat strategy as the branch count scales, total dataset size held
// fixed. Expected shape: vf/hy latency falls with more (smaller)
// branches while tf stays flat-to-worse because it always scans the
// whole shared heap.
func BenchmarkFigure6a(b *testing.B) {
	const totalOps = 12000
	for _, branches := range []int{10, 50, 100} {
		cfg := benchConfig(bench.Flat, branches, totalOps/branches)
		for _, e := range engines {
			b.Run(fmt.Sprintf("%s/branches=%d", e, branches), func(b *testing.B) {
				d := getDataset(b, e, cfg)
				r := rand.New(rand.NewSource(7))
				child := d.RandomChild(r)
				benchRows(b, func() int { return scanBranch(b, d, child.ID) })
			})
		}
	}
}

// BenchmarkFigure6b — Figure 6b: Query 4 (scan all branch heads) as
// branches scale, deep and flat. Expected shape: vf degrades sharply
// with branch count (it must resolve every lineage); tf/hy stay near
// one sequential pass thanks to their bitmap indexes.
func BenchmarkFigure6b(b *testing.B) {
	const totalOps = 12000
	for _, strategy := range []bench.Strategy{bench.Deep, bench.Flat} {
		for _, branches := range []int{10, 50, 100} {
			cfg := benchConfig(strategy, branches, totalOps/branches)
			for _, e := range engines {
				b.Run(fmt.Sprintf("%s/%s/branches=%d", e, strategy, branches), func(b *testing.B) {
					d := getDataset(b, e, cfg)
					benchRows(b, func() int { return scanHeads(b, d, decibel.MatchAll()) })
				})
			}
		}
	}
}

// figure7Target resolves the paper's Figure 7 scan targets.
func figure7Target(d *bench.Dataset, target string, r *rand.Rand) decibel.BranchID {
	switch target {
	case "tail":
		return d.TailBranch().ID
	case "child":
		return d.RandomChild(r).ID
	case "young":
		return d.YoungestActive().ID
	case "old":
		return d.OldestActive().ID
	case "mainline":
		return d.Mainline.ID
	case "dev":
		return d.RandomDev(r).ID
	case "feature":
		return d.RandomFeature(r).ID
	default:
		panic("unknown target " + target)
	}
}

// BenchmarkFigure7 — Figure 7: Query 1 across every strategy and scan
// target, including the tuple-first clustered-loading ablation
// ("tfc"). Expected shape: tf pays a full heap scan everywhere;
// clustering rescues tf on flat; vf/hy win on flat and science; hybrid
// beats vf under curation's merge-heavy lineages.
func BenchmarkFigure7(b *testing.B) {
	cases := []struct {
		strategy bench.Strategy
		target   string
	}{
		{bench.Deep, "tail"},
		{bench.Flat, "child"},
		{bench.Science, "young"},
		{bench.Science, "old"},
		{bench.Curation, "feature"},
		{bench.Curation, "dev"},
		{bench.Curation, "mainline"},
	}
	const branches, perBranch = 20, 600
	for _, c := range cases {
		cfg := benchConfig(c.strategy, branches, perBranch)
		names := []string{"vf", "tf", "hy"}
		for _, name := range names {
			b.Run(fmt.Sprintf("%s/%s-%s", name, c.strategy, c.target), func(b *testing.B) {
				d := getDataset(b, name, cfg)
				r := rand.New(rand.NewSource(7))
				br := figure7Target(d, c.target, r)
				benchRows(b, func() int { return scanBranch(b, d, br) })
			})
		}
		if c.strategy == bench.Flat {
			// Ablation: tuple-first over a clustered load.
			ccfg := cfg
			ccfg.Clustered = true
			b.Run(fmt.Sprintf("tfc/%s-%s", c.strategy, c.target), func(b *testing.B) {
				d := getDataset(b, "tf", ccfg)
				r := rand.New(rand.NewSource(7))
				br := figure7Target(d, c.target, r)
				benchRows(b, func() int { return scanBranch(b, d, br) })
			})
		}
	}
}

// figure8Pair resolves the paper's Figure 8/9 branch pairs.
func figure8Pair(d *bench.Dataset, r *rand.Rand) (decibel.BranchID, decibel.BranchID) {
	switch d.Cfg.Strategy {
	case bench.Deep:
		tail := d.TailBranch()
		parent := d.Branches[len(d.Branches)-2]
		return tail.ID, parent.ID
	case bench.Flat:
		return d.RandomChild(r).ID, d.Mainline.ID
	case bench.Science:
		return d.OldestActive().ID, d.Mainline.ID
	default: // Curation
		return d.Mainline.ID, d.RandomDev(r).ID
	}
}

// BenchmarkFigure8 — Figure 8: Query 2 (positive diff) per strategy.
// Expected shape: vf uniformly worst (multiple passes to resolve both
// live sets); tf and hy close, with hy ahead as interleaving grows.
func BenchmarkFigure8(b *testing.B) {
	const branches, perBranch = 20, 600
	for _, strategy := range []bench.Strategy{bench.Deep, bench.Flat, bench.Science, bench.Curation} {
		cfg := benchConfig(strategy, branches, perBranch)
		for _, e := range engines {
			b.Run(fmt.Sprintf("%s/%s", e, strategy), func(b *testing.B) {
				d := getDataset(b, e, cfg)
				r := rand.New(rand.NewSource(7))
				x, y := figure8Pair(d, r)
				q, xn, yn := benchDB(d).Query("r"), branchName(b, d, x), branchName(b, d, y)
				benchRows(b, func() int {
					rows, errf := q.Diff(xn, yn)
					return drain(b, rows, errf)
				})
			})
		}
	}
}

// BenchmarkFigure9 — Figure 9: Query 3 (primary-key join of two
// versions under a predicate). Expected shape: like Figure 8, but vf
// closes the gap in merge-free strategies (its live sets feed a hash
// join directly) and falls behind again under curation.
func BenchmarkFigure9(b *testing.B) {
	const branches, perBranch = 20, 600
	for _, strategy := range []bench.Strategy{bench.Deep, bench.Flat, bench.Science, bench.Curation} {
		cfg := benchConfig(strategy, branches, perBranch)
		for _, e := range engines {
			b.Run(fmt.Sprintf("%s/%s", e, strategy), func(b *testing.B) {
				d := getDataset(b, e, cfg)
				r := rand.New(rand.NewSource(7))
				x, y := figure8Pair(d, r)
				// c1 is uniform over int32: ~50% selectivity on the left.
				db := benchDB(d)
				q := db.Query("r").On(branchName(b, d, x)).Where(decibel.Col("c1").Lt(0)).
					JoinOn(db.Query("r").On(branchName(b, d, y)), decibel.On("id", "id"))
				benchRows(b, func() int {
					rows, errf := q.Tuples()
					return drain(b, rows, errf)
				})
			})
		}
	}
}

// BenchmarkFigure10 — Figure 10: Query 4 (all-heads scan with a
// non-selective predicate) per strategy. Expected shape: tf and hy
// comparable (one pass, bitmap membership); vf worst, degrading most
// under curation's merges.
func BenchmarkFigure10(b *testing.B) {
	const branches, perBranch = 20, 600
	for _, strategy := range []bench.Strategy{bench.Deep, bench.Flat, bench.Science, bench.Curation} {
		cfg := benchConfig(strategy, branches, perBranch)
		for _, e := range engines {
			b.Run(fmt.Sprintf("%s/%s", e, strategy), func(b *testing.B) {
				d := getDataset(b, e, cfg)
				// c1 is uniform over int32: keep ~90%, "very non-selective".
				pred := decibel.Col("c1").Ge(math.MinInt32 + (1<<32)/10)
				benchRows(b, func() int { return scanHeads(b, d, pred) })
			})
		}
	}
}

// BenchmarkFigure11 — Figure 11 and Table 4: Query 1 before and after a
// table-wise update, 10 branches. Expected shape: vf scan degrades in
// proportion to the copied data; the bitmap engines do not, and tf
// *improves* after the update because the rewrite clusters the
// branch's records. Table 4's storage growth is reported as
// pre/post-size metrics.
func BenchmarkFigure11(b *testing.B) {
	const branches, perBranch = 10, 600
	for _, strategy := range []bench.Strategy{bench.Deep, bench.Flat, bench.Science, bench.Curation} {
		for _, e := range engines {
			b.Run(fmt.Sprintf("%s/%s", e, strategy), func(b *testing.B) {
				// Table-wise updates mutate the dataset: build privately.
				cfg := benchConfig(strategy, branches, perBranch)
				cfg.Seed = 99
				dir := b.TempDir()
				d, err := loadDataset(dir, e, cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer d.Close()
				r := rand.New(rand.NewSource(7))
				var target decibel.BranchID
				switch strategy {
				case bench.Deep:
					target = d.TailBranch().ID
				case bench.Flat:
					target = d.RandomChild(r).ID
				case bench.Science:
					target = d.YoungestActive().ID
				default:
					target = d.Mainline.ID
				}
				st0, _ := d.DB.Stats()
				t0 := time.Now()
				for i := 0; i < 3; i++ {
					scanBranch(b, d, target)
				}
				pre := time.Since(t0) / 3
				if err := d.TableWiseUpdate(target); err != nil {
					b.Fatal(err)
				}
				st1, _ := d.DB.Stats()
				t1 := time.Now()
				for i := 0; i < 3; i++ {
					scanBranch(b, d, target)
				}
				post := time.Since(t1) / 3
				b.ReportMetric(float64(pre.Microseconds()), "pre-scan-us")
				b.ReportMetric(float64(post.Microseconds()), "post-scan-us")
				b.ReportMetric(float64(st0.DataBytes), "pre-bytes")
				b.ReportMetric(float64(st1.DataBytes), "post-bytes")
				// Keep the harness happy with at least one timed iteration.
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					scanBranch(b, d, target)
				}
			})
		}
	}
}

// BenchmarkTable2 — Table 2: commit history size, commit latency and
// checkout latency for the bitmap engines (tf vs hy) per strategy.
// Expected shape: hy's per-(branch, segment) histories are smaller and
// its checkouts faster than tf's single wide bitmap per branch;
// storage overhead stays well under 1% of data size for both.
func BenchmarkTable2(b *testing.B) {
	const branches, perBranch = 20, 600
	for _, strategy := range []bench.Strategy{bench.Deep, bench.Flat, bench.Science, bench.Curation} {
		cfg := benchConfig(strategy, branches, perBranch)
		for _, name := range []string{"tf", "hy"} {
			b.Run(fmt.Sprintf("%s/%s/commit", name, strategy), func(b *testing.B) {
				d := getDataset(b, name, cfg)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := d.DB.Commit(d.Mainline.ID, "bench commit"); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				st, _ := d.DB.Stats()
				b.ReportMetric(float64(st.CommitBytes), "history-bytes")
				b.ReportMetric(float64(st.DataBytes), "data-bytes")
			})
			b.Run(fmt.Sprintf("%s/%s/checkout", name, strategy), func(b *testing.B) {
				d := getDataset(b, name, cfg)
				r := rand.New(rand.NewSource(3))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					checkout(b, d, d.Commits[r.Intn(len(d.Commits))])
				}
			})
		}
	}
}

// BenchmarkTable3 — Table 3: merge throughput (MB/s over the diffed
// bytes) for two-way and three-way merges on the curation strategy.
// Expected shape: hy fastest, tf close, vf slowest — and vf hit
// hardest by three-way merges, which need the LCA resolved.
func BenchmarkTable3(b *testing.B) {
	const branches, perBranch = 12, 500
	for _, threeWay := range []bool{false, true} {
		kind := "two-way"
		if threeWay {
			kind = "three-way"
		}
		for _, e := range engines {
			b.Run(fmt.Sprintf("%s/%s", e, kind), func(b *testing.B) {
				var mb, secs float64
				merges := 0
				for i := 0; i < b.N; i++ {
					cfg := benchConfig(bench.Curation, branches, perBranch)
					cfg.ThreeWayMerges = threeWay
					cfg.Seed = int64(100 + i)
					dir := b.TempDir()
					d, err := loadDataset(dir, e, cfg)
					if err != nil {
						b.Fatal(err)
					}
					for _, m := range d.Merges {
						mb += float64(m.Stats.DiffBytes) / (1 << 20)
						secs += m.Elapsed.Seconds()
					}
					merges += len(d.Merges)
					d.Close()
				}
				if secs > 0 {
					b.ReportMetric(mb/secs, "merge-MB/s")
				}
				b.ReportMetric(float64(merges)/float64(b.N), "merges")
			})
		}
	}
}

// BenchmarkTable5 — Table 5: build (load) time per strategy and engine.
// Expected shape: vf loads fastest (append-only, no index maintenance)
// except under curation where its merge machinery dominates; hy loads
// faster than tf (smaller indexes).
func BenchmarkTable5(b *testing.B) {
	const branches, perBranch = 10, 500
	for _, strategy := range []bench.Strategy{bench.Deep, bench.Flat, bench.Science, bench.Curation} {
		for _, e := range engines {
			b.Run(fmt.Sprintf("%s/%s", e, strategy), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cfg := benchConfig(strategy, branches, perBranch)
					cfg.Seed = int64(i + 1)
					dir := b.TempDir()
					d, err := loadDataset(dir, e, cfg)
					if err != nil {
						b.Fatal(err)
					}
					st, _ := d.DB.Stats()
					b.ReportMetric(float64(d.LoadTime.Microseconds())/1000, "load-ms")
					b.ReportMetric(float64(st.DataBytes)/(1<<20), "data-MB")
					d.Close()
					os.RemoveAll(dir)
				}
			})
		}
	}
}

// gitDeepLoad drives the git-backed table through the deep strategy:
// insertFrac=1.0 reproduces Table 6 (100% inserts), 0.5 reproduces
// Table 7 (50% updates). Returns average commit and checkout times.
func gitDeepLoad(b *testing.B, layout gitstore.Layout, format gitstore.Format, insertFrac float64, branches, opsPerBranch, commitEvery int) (commitAvg, checkoutAvg time.Duration, repoBytes, dataBytes int64, repackTime time.Duration) {
	b.Helper()
	schema := decibel.BenchmarkSchema(256)
	tbl, err := gitstore.NewTable(b.TempDir(), schema, layout, format)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))
	var commits []gitstore.Hash
	var commitTotal time.Duration
	nCommits := 0
	cur := "master"
	nextPK := int64(1)
	var keys []int64
	for br := 0; br < branches; br++ {
		if br > 0 {
			name := fmt.Sprintf("b%d", br)
			if err := tbl.Branch(name, cur); err != nil {
				b.Fatal(err)
			}
			cur = name
		}
		for n := 0; n < opsPerBranch; n++ {
			rec := decibel.NewRecord(schema)
			if len(keys) > 0 && r.Float64() >= insertFrac {
				rec.SetPK(keys[r.Intn(len(keys))])
			} else {
				rec.SetPK(nextPK)
				keys = append(keys, nextPK)
				nextPK++
			}
			for i := 1; i < schema.NumColumns(); i++ {
				rec.Set(i, r.Int63())
			}
			if err := tbl.Insert(cur, rec); err != nil {
				b.Fatal(err)
			}
			if (n+1)%commitEvery == 0 {
				t0 := time.Now()
				h, err := tbl.Commit(cur, "load")
				if err != nil {
					b.Fatal(err)
				}
				commitTotal += time.Since(t0)
				nCommits++
				commits = append(commits, h)
			}
		}
	}
	t0 := time.Now()
	if err := tbl.Repo().Repack(10); err != nil {
		b.Fatal(err)
	}
	repackTime = time.Since(t0)

	var checkoutTotal time.Duration
	nCheckouts := 20
	for i := 0; i < nCheckouts; i++ {
		h := commits[r.Intn(len(commits))]
		t0 := time.Now()
		if _, _, err := tbl.Checkout(h); err != nil {
			b.Fatal(err)
		}
		checkoutTotal += time.Since(t0)
	}
	repoBytes, _ = tbl.Repo().RepoSizeBytes()
	dataBytes = tbl.DataSizeBytes(cur)
	return commitTotal / time.Duration(nCommits), checkoutTotal / time.Duration(nCheckouts), repoBytes, dataBytes, repackTime
}

// decibelDeepLoad mirrors gitDeepLoad on the hybrid engine for the
// Decibel rows of Tables 6 and 7; its "repo" is the data plus the
// commit histories.
func decibelDeepLoad(b *testing.B, insertFrac float64, branches, opsPerBranch, commitEvery int) (commitAvg, checkoutAvg time.Duration, repoBytes, dataBytes int64) {
	b.Helper()
	cfg := benchConfig(bench.Deep, branches, opsPerBranch)
	cfg.UpdateFrac = 1 - insertFrac
	cfg.CommitEvery = commitEvery
	dir := b.TempDir()
	d, err := loadDataset(dir, "hy", cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	// Commit latency: sample fresh commits on the tail branch.
	tail := d.TailBranch().ID
	var commitTotal time.Duration
	const nC = 10
	for i := 0; i < nC; i++ {
		t0 := time.Now()
		if _, err := d.DB.Commit(tail, "sample"); err != nil {
			b.Fatal(err)
		}
		commitTotal += time.Since(t0)
	}
	r := rand.New(rand.NewSource(5))
	var checkoutTotal time.Duration
	const nK = 20
	for i := 0; i < nK; i++ {
		c := d.Commits[r.Intn(len(d.Commits))]
		t0 := time.Now()
		checkout(b, d, c)
		checkoutTotal += time.Since(t0)
	}
	st, _ := d.DB.Stats()
	return commitTotal / nC, checkoutTotal / nK, st.DataBytes + st.CommitBytes, st.DataBytes
}

// BenchmarkTable6 — Table 6: git-backed storage vs Decibel (hybrid) on
// the deep strategy with 100% inserts. Expected shape: git commit and
// checkout latencies orders of magnitude above Decibel's, repack
// expensive, git repo smaller after repack (delta chains) while
// Decibel trades space for speed.
func BenchmarkTable6(b *testing.B) { benchGitTable(b, 1.0) }

// BenchmarkTable7 — Table 7: the update-heavy variant (50% updates) of
// the git comparison. Expected shape: same orders-of-magnitude gap;
// file-per-tuple checkouts degrade further as history accumulates
// update blobs.
func BenchmarkTable7(b *testing.B) { benchGitTable(b, 0.5) }

// benchGitTable runs one git comparison: every git layout and format,
// then Decibel, over the same deep load with insertFrac inserts.
func benchGitTable(b *testing.B, insertFrac float64) {
	const branches, opsPerBranch, commitEvery = 10, 300, 30
	cases := []struct {
		name   string
		layout gitstore.Layout
		format gitstore.Format
	}{
		{"git-1file-bin", gitstore.OneFile, gitstore.Binary},
		{"git-1file-csv", gitstore.OneFile, gitstore.CSV},
		{"git-filetup-bin", gitstore.FilePerTuple, gitstore.Binary},
		{"git-filetup-csv", gitstore.FilePerTuple, gitstore.CSV},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				commit, checkout, repo, data, repack := gitDeepLoad(b, c.layout, c.format, insertFrac, branches, opsPerBranch, commitEvery)
				b.ReportMetric(float64(commit.Microseconds()), "commit-us")
				b.ReportMetric(float64(checkout.Microseconds()), "checkout-us")
				b.ReportMetric(float64(repo)/(1<<20), "repo-MB")
				b.ReportMetric(float64(data)/(1<<20), "data-MB")
				b.ReportMetric(repack.Seconds()*1000, "repack-ms")
			}
		})
	}
	b.Run("decibel-hy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			commit, checkout, repo, data := decibelDeepLoad(b, insertFrac, branches, opsPerBranch, commitEvery)
			b.ReportMetric(float64(commit.Microseconds()), "commit-us")
			b.ReportMetric(float64(checkout.Microseconds()), "checkout-us")
			b.ReportMetric(float64(repo)/(1<<20), "repo-MB")
			b.ReportMetric(float64(data)/(1<<20), "data-MB")
		}
	})
}
