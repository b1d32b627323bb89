// Command decibel-bench runs the paper's evaluation experiments
// (Section 5) at a configurable scale and prints the corresponding
// figure/table rows. It is the CLI counterpart of the bench_test.go
// harness; use `go test -bench .` for testing.B-based measurements.
//
// Usage:
//
//	decibel-bench -experiment fig6a -branches 10,50,100 -total 12000
//	decibel-bench -experiment fig7
//	decibel-bench -experiment table3
//	decibel-bench -experiment table6
//	decibel-bench -experiment all
package main

import (
	"flag"
	"fmt"
	"iter"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"decibel"
	"decibel/bench"
	"decibel/gitstore"
)

// engines under comparison, in the paper's order (short registry
// aliases).
var engines = []string{"vf", "tf", "hy"}

var (
	flagExperiment = flag.String("experiment", "all", "fig6a|fig6b|fig7|fig8|fig9|fig10|fig11|table2|table3|table5|table6|table7|all")
	flagBranches   = flag.String("branches", "10,50,100", "branch counts for scaling experiments")
	flagTotal      = flag.Int("total", 12000, "total operations for fixed-size experiments")
	flagPerBranch  = flag.Int("per-branch", 600, "operations per branch for per-strategy experiments")
	flagNBranches  = flag.Int("n-branches", 20, "branch count for per-strategy experiments")
	flagRecord     = flag.Int("record-bytes", 256, "record size in bytes")
)

// opts pins scans to one goroutine: the paper's experiments compare
// the schemes' storage costs, not how well a scan parallelizes.
func opts() bench.Options {
	return bench.Options{PageSize: 64 << 10, PoolPages: 256, ScanWorkers: 1}
}

func cfgFor(s bench.Strategy, branches, perBranch int) bench.Config {
	cfg := bench.DefaultConfig(s)
	cfg.Branches = branches
	cfg.RecordsPerBranch = perBranch
	cfg.RecordBytes = *flagRecord
	cfg.CommitEvery = perBranch / 5
	if cfg.CommitEvery < 1 {
		cfg.CommitEvery = 1
	}
	cfg.ScienceLifetime = perBranch * 2
	cfg.CurationDevOps = perBranch
	cfg.CurationFeatOps = perBranch / 4
	return cfg
}

func load(engine string, cfg bench.Config) (*bench.Dataset, func()) {
	dir, err := os.MkdirTemp("", "decibel-bench-*")
	check(err)
	d, err := bench.Load(dir, engine, opts(), cfg)
	check(err)
	return d, func() { d.Close(); os.RemoveAll(dir) }
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "decibel-bench:", err)
		os.Exit(1)
	}
}

// query starts a builder query over the benchmark table.
func query(d *bench.Dataset) *decibel.Query {
	return (&decibel.DB{Database: d.DB}).Query("r")
}

// Predicates of chosen selectivity over c1, which the generator fills
// uniformly over int32: half the rows, and nine in ten ("a very
// non-selective predicate", Query 4).
var (
	predHalf = decibel.Col("c1").Lt(0)
	predMost = decibel.Col("c1").Ge(math.MinInt32 + (1<<32)/10)
)

// timeRows times draining a row iterator and counts its rows.
func timeRows[T any](rows iter.Seq[T], errf func() error) (time.Duration, int) {
	t0 := time.Now()
	n := 0
	for range rows {
		n++
	}
	check(errf())
	return time.Since(t0), n
}

func timeScan(d *bench.Dataset, b *decibel.Branch) (time.Duration, int) {
	return timeRows(query(d).On(b.Name).Rows())
}

// timeCheckout times reading one commit whole (a checkout).
func timeCheckout(d *bench.Dataset, c *decibel.Commit) time.Duration {
	b, _ := d.DB.Graph().Branch(c.Branch)
	el, _ := timeRows(query(d).On(b.Name).AtCommit(c.ID).Rows())
	return el
}

func timeHeads(d *bench.Dataset, where decibel.Expr) (time.Duration, int) {
	t0 := time.Now()
	n := 0
	rows, errf := query(d).Heads().Where(where).Annotated()
	for range rows {
		n++
	}
	check(errf())
	return time.Since(t0), n
}

func header(title string) { fmt.Printf("\n== %s ==\n", title) }

func fig6a() {
	header("Figure 6a: Q1 single-branch scan vs branch count (flat)")
	fmt.Printf("%-8s %-10s %-12s %-10s\n", "engine", "branches", "latency", "records")
	for _, bs := range parseInts(*flagBranches) {
		cfg := cfgFor(bench.Flat, bs, *flagTotal/bs)
		for _, e := range engines {
			d, done := load(e, cfg)
			r := rand.New(rand.NewSource(7))
			child := d.RandomChild(r)
			timeScan(d, child) // warm
			el, n := timeScan(d, child)
			fmt.Printf("%-8s %-10d %-12s %-10d\n", e, bs, el.Round(time.Microsecond), n)
			done()
		}
	}
}

func fig6b() {
	header("Figure 6b: Q4 all-heads scan vs branch count (deep, flat)")
	fmt.Printf("%-8s %-6s %-10s %-12s %-10s\n", "engine", "strat", "branches", "latency", "records")
	for _, s := range []bench.Strategy{bench.Deep, bench.Flat} {
		for _, bs := range parseInts(*flagBranches) {
			cfg := cfgFor(s, bs, *flagTotal/bs)
			for _, e := range engines {
				d, done := load(e, cfg)
				timeHeads(d, decibel.MatchAll())
				el, n := timeHeads(d, decibel.MatchAll())
				fmt.Printf("%-8s %-6s %-10d %-12s %-10d\n", e, s, bs, el.Round(time.Microsecond), n)
				done()
			}
		}
	}
}

func fig7() {
	header("Figure 7: Q1 per strategy and scan target")
	cases := []struct {
		s      bench.Strategy
		target string
	}{
		{bench.Deep, "tail"}, {bench.Flat, "child"},
		{bench.Science, "young"}, {bench.Science, "old"},
		{bench.Curation, "feature"}, {bench.Curation, "dev"}, {bench.Curation, "mainline"},
	}
	fmt.Printf("%-8s %-14s %-12s %-10s\n", "engine", "case", "latency", "records")
	for _, c := range cases {
		cfg := cfgFor(c.s, *flagNBranches, *flagPerBranch)
		for _, e := range engines {
			d, done := load(e, cfg)
			r := rand.New(rand.NewSource(7))
			b := pickTarget(d, c.target, r)
			timeScan(d, b)
			el, n := timeScan(d, b)
			fmt.Printf("%-8s %-14s %-12s %-10d\n", e, fmt.Sprintf("%s-%s", c.s, c.target), el.Round(time.Microsecond), n)
			done()
		}
	}
}

func pickTarget(d *bench.Dataset, target string, r *rand.Rand) *decibel.Branch {
	switch target {
	case "tail":
		return d.TailBranch()
	case "child":
		return d.RandomChild(r)
	case "young":
		return d.YoungestActive()
	case "old":
		return d.OldestActive()
	case "dev":
		return d.RandomDev(r)
	case "feature":
		return d.RandomFeature(r)
	default:
		return d.Mainline
	}
}

func pair(d *bench.Dataset, r *rand.Rand) (*decibel.Branch, *decibel.Branch) {
	switch d.Cfg.Strategy {
	case bench.Deep:
		return d.TailBranch(), d.Branches[len(d.Branches)-2]
	case bench.Flat:
		return d.RandomChild(r), d.Mainline
	case bench.Science:
		return d.OldestActive(), d.Mainline
	default:
		return d.Mainline, d.RandomDev(r)
	}
}

func fig8() {
	header("Figure 8: Q2 positive diff per strategy")
	fmt.Printf("%-8s %-6s %-12s %-10s\n", "engine", "strat", "latency", "rows")
	for _, s := range []bench.Strategy{bench.Deep, bench.Flat, bench.Science, bench.Curation} {
		cfg := cfgFor(s, *flagNBranches, *flagPerBranch)
		for _, e := range engines {
			d, done := load(e, cfg)
			r := rand.New(rand.NewSource(7))
			a, b := pair(d, r)
			run := func() (time.Duration, int) { return timeRows(query(d).Diff(a.Name, b.Name)) }
			run()
			el, n := run()
			fmt.Printf("%-8s %-6s %-12s %-10d\n", e, s, el.Round(time.Microsecond), n)
			done()
		}
	}
}

func fig9() {
	header("Figure 9: Q3 multi-version join per strategy")
	fmt.Printf("%-8s %-6s %-12s %-10s\n", "engine", "strat", "latency", "rows")
	for _, s := range []bench.Strategy{bench.Deep, bench.Flat, bench.Science, bench.Curation} {
		cfg := cfgFor(s, *flagNBranches, *flagPerBranch)
		for _, e := range engines {
			d, done := load(e, cfg)
			r := rand.New(rand.NewSource(7))
			a, b := pair(d, r)
			db := &decibel.DB{Database: d.DB} // both legs must share one handle
			run := func() (time.Duration, int) {
				return timeRows(db.Query("r").On(a.Name).Where(predHalf).
					JoinOn(db.Query("r").On(b.Name), decibel.On("id", "id")).Tuples())
			}
			run()
			el, n := run()
			fmt.Printf("%-8s %-6s %-12s %-10d\n", e, s, el.Round(time.Microsecond), n)
			done()
		}
	}
}

func fig10() {
	header("Figure 10: Q4 all-heads scan with predicate per strategy")
	fmt.Printf("%-8s %-6s %-12s %-10s\n", "engine", "strat", "latency", "rows")
	for _, s := range []bench.Strategy{bench.Deep, bench.Flat, bench.Science, bench.Curation} {
		cfg := cfgFor(s, *flagNBranches, *flagPerBranch)
		for _, e := range engines {
			d, done := load(e, cfg)
			run := func() (time.Duration, int) { return timeHeads(d, predMost) }
			run()
			el, n := run()
			fmt.Printf("%-8s %-6s %-12s %-10d\n", e, s, el.Round(time.Microsecond), n)
			done()
		}
	}
}

func fig11() {
	header("Figure 11 + Table 4: Q1 before/after table-wise update (10 branches)")
	fmt.Printf("%-8s %-6s %-12s %-12s %-12s %-12s\n", "engine", "strat", "pre-scan", "post-scan", "pre-MB", "post-MB")
	for _, s := range []bench.Strategy{bench.Deep, bench.Flat, bench.Science, bench.Curation} {
		for _, e := range engines {
			cfg := cfgFor(s, 10, *flagPerBranch)
			d, done := load(e, cfg)
			r := rand.New(rand.NewSource(7))
			var b *decibel.Branch
			switch s {
			case bench.Deep:
				b = d.TailBranch()
			case bench.Flat:
				b = d.RandomChild(r)
			case bench.Science:
				b = d.YoungestActive()
			default:
				b = d.Mainline
			}
			st0, _ := d.DB.Stats()
			timeScan(d, b)
			pre, _ := timeScan(d, b)
			check(d.TableWiseUpdate(b.ID))
			st1, _ := d.DB.Stats()
			timeScan(d, b)
			post, _ := timeScan(d, b)
			fmt.Printf("%-8s %-6s %-12s %-12s %-12.1f %-12.1f\n", e, s,
				pre.Round(time.Microsecond), post.Round(time.Microsecond),
				float64(st0.DataBytes)/(1<<20), float64(st1.DataBytes)/(1<<20))
			done()
		}
	}
}

func table2() {
	header("Table 2: bitmap commit data (tf vs hy)")
	fmt.Printf("%-6s %-6s %-14s %-14s %-14s\n", "strat", "eng", "history-KB", "commit", "checkout")
	for _, s := range []bench.Strategy{bench.Deep, bench.Flat, bench.Science, bench.Curation} {
		for _, e := range engines {
			if e == "vf" {
				continue
			}
			cfg := cfgFor(s, *flagNBranches, *flagPerBranch)
			d, done := load(e, cfg)
			// Commit latency.
			var commitTotal time.Duration
			const nC = 20
			for i := 0; i < nC; i++ {
				t0 := time.Now()
				_, err := d.DB.Commit(d.Mainline.ID, "sample")
				check(err)
				commitTotal += time.Since(t0)
			}
			// Checkout latency over random commits.
			r := rand.New(rand.NewSource(3))
			var checkoutTotal time.Duration
			const nK = 20
			for i := 0; i < nK; i++ {
				checkoutTotal += timeCheckout(d, d.Commits[r.Intn(len(d.Commits))])
			}
			st, _ := d.DB.Stats()
			fmt.Printf("%-6s %-6s %-14.1f %-14s %-14s\n", s, e,
				float64(st.CommitBytes)/1024,
				(commitTotal / nC).Round(time.Microsecond),
				(checkoutTotal / nK).Round(time.Microsecond))
			done()
		}
	}
}

func table3() {
	header("Table 3: merge throughput (curation)")
	fmt.Printf("%-8s %-12s %-12s %-8s\n", "engine", "kind", "MB/s", "merges")
	for _, threeWay := range []bool{false, true} {
		kind := "two-way"
		if threeWay {
			kind = "three-way"
		}
		for _, e := range engines {
			cfg := cfgFor(bench.Curation, 12, *flagPerBranch)
			cfg.ThreeWayMerges = threeWay
			d, done := load(e, cfg)
			var mb, secs float64
			for _, m := range d.Merges {
				mb += float64(m.Stats.DiffBytes) / (1 << 20)
				secs += m.Elapsed.Seconds()
			}
			rate := 0.0
			if secs > 0 {
				rate = mb / secs
			}
			fmt.Printf("%-8s %-12s %-12.1f %-8d\n", e, kind, rate, len(d.Merges))
			done()
		}
	}
}

func table5() {
	header("Table 5: build times")
	fmt.Printf("%-6s %-8s %-12s %-10s\n", "strat", "engine", "load-time", "data-MB")
	for _, s := range []bench.Strategy{bench.Deep, bench.Flat, bench.Science, bench.Curation} {
		for _, e := range engines {
			cfg := cfgFor(s, *flagNBranches, *flagPerBranch)
			d, done := load(e, cfg)
			st, _ := d.DB.Stats()
			fmt.Printf("%-6s %-8s %-12s %-10.1f\n", s, e, d.LoadTime.Round(time.Millisecond), float64(st.DataBytes)/(1<<20))
			done()
		}
	}
}

func gitTables(insertFrac float64, title string) {
	header(title)
	const branches, opsPerBranch, commitEvery = 10, 300, 30
	schema := decibel.BenchmarkSchema(*flagRecord)
	cases := []struct {
		name   string
		layout gitstore.Layout
		format gitstore.Format
	}{
		{"git 1 file (bin)", gitstore.OneFile, gitstore.Binary},
		{"git 1 file (csv)", gitstore.OneFile, gitstore.CSV},
		{"git file/tup (bin)", gitstore.FilePerTuple, gitstore.Binary},
		{"git file/tup (csv)", gitstore.FilePerTuple, gitstore.CSV},
	}
	fmt.Printf("%-20s %-10s %-10s %-12s %-12s %-12s\n", "system", "data-MB", "repo-MB", "repack", "commit", "checkout")
	for _, c := range cases {
		dir, err := os.MkdirTemp("", "decibel-git-*")
		check(err)
		tbl, err := gitstore.NewTable(dir, schema, c.layout, c.format)
		check(err)
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
				check(tbl.Branch(name, cur))
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
				check(tbl.Insert(cur, rec))
				if (n+1)%commitEvery == 0 {
					t0 := time.Now()
					h, err := tbl.Commit(cur, "load")
					check(err)
					commitTotal += time.Since(t0)
					nCommits++
					commits = append(commits, h)
				}
			}
		}
		t0 := time.Now()
		check(tbl.Repo().Repack(10))
		repack := time.Since(t0)
		var checkoutTotal time.Duration
		const nK = 20
		for i := 0; i < nK; i++ {
			h := commits[r.Intn(len(commits))]
			t1 := time.Now()
			_, _, err := tbl.Checkout(h)
			check(err)
			checkoutTotal += time.Since(t1)
		}
		repoMB, _ := tbl.Repo().RepoSizeBytes()
		fmt.Printf("%-20s %-10.1f %-10.1f %-12s %-12s %-12s\n", c.name,
			float64(tbl.DataSizeBytes(cur))/(1<<20), float64(repoMB)/(1<<20),
			repack.Round(time.Millisecond),
			(commitTotal / time.Duration(nCommits)).Round(time.Microsecond),
			(checkoutTotal / nK).Round(time.Microsecond))
		os.RemoveAll(dir)
	}
	// Decibel (hybrid) row.
	cfg := cfgFor(bench.Deep, branches, opsPerBranch)
	cfg.UpdateFrac = 1 - insertFrac
	cfg.CommitEvery = commitEvery
	d, done := load("hy", cfg)
	tail := d.TailBranch().ID
	var commitTotal time.Duration
	const nC = 10
	for i := 0; i < nC; i++ {
		t0 := time.Now()
		_, err := d.DB.Commit(tail, "sample")
		check(err)
		commitTotal += time.Since(t0)
	}
	r := rand.New(rand.NewSource(5))
	var checkoutTotal time.Duration
	const nK = 20
	for i := 0; i < nK; i++ {
		checkoutTotal += timeCheckout(d, d.Commits[r.Intn(len(d.Commits))])
	}
	st, _ := d.DB.Stats()
	fmt.Printf("%-20s %-10.1f %-10.1f %-12s %-12s %-12s\n", "Decibel (hybrid)",
		float64(st.DataBytes)/(1<<20), float64(st.DataBytes+st.CommitBytes)/(1<<20),
		"n/a",
		(commitTotal / nC).Round(time.Microsecond),
		(checkoutTotal / nK).Round(time.Microsecond))
	done()
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		check(err)
		out = append(out, n)
	}
	return out
}

func main() {
	flag.Parse()
	run := map[string]func(){
		"fig6a": fig6a, "fig6b": fig6b, "fig7": fig7, "fig8": fig8,
		"fig9": fig9, "fig10": fig10, "fig11": fig11,
		"table2": table2, "table3": table3, "table5": table5,
		"table6": func() { gitTables(1.0, "Table 6: git vs Decibel, deep, 100% inserts") },
		"table7": func() { gitTables(0.5, "Table 7: git vs Decibel, deep, 50% updates") },
	}
	order := []string{"fig6a", "fig6b", "fig7", "fig8", "fig9", "fig10", "fig11", "table2", "table3", "table5", "table6", "table7"}
	if *flagExperiment == "all" {
		for _, name := range order {
			run[name]()
		}
		return
	}
	fn, ok := run[*flagExperiment]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *flagExperiment)
		os.Exit(2)
	}
	fn()
}
