// Command benchmark is Decibel's end-to-end benchmark: it generates a
// branched dataset from a seed, loads it through the public API, drives
// fixed-count blocks of the paper's query and write shapes against it,
// checks every result against an in-memory reference model, and prints
// each metric by name. See README.md for the protocol and the metric
// and workload tables; BENCHMARK.json at the repository root is the
// contract the numbers are gated by.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, a comma-separated list, or all")
		seed    = flag.Int64("seed", 1, "generator seed: same seed, same dataset and operations")
		seconds = flag.Float64("seconds", 20, "length of the measured window of one run")
		trace   = flag.Int("trace", 0, "1 = traced run: record spans, walk the layer ladder, report per-layer metrics")
		aa      = flag.Bool("aa", false, "run the workloads twice in alternating order and compare against BENCHMARK.json's bounds")
		out     = flag.String("out", "", "also write the full reports as JSON to this file")
		data    = flag.String("data", ".bench_build/data", "directory the datasets are created (and removed) under")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace != 0, *aa, *out, *data); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace, aa bool, out, data string) error {
	var ws []*workload
	if name == "all" {
		ws = workloads
	} else {
		for _, n := range strings.Split(name, ",") {
			w := workloadNamed(n)
			if w == nil {
				return fmt.Errorf("no workload %q", n)
			}
			ws = append(ws, w)
		}
	}
	if err := os.MkdirAll(data, 0o755); err != nil {
		return err
	}
	cfg := runConfig{seconds: seconds, loads: setupLoads, trace: trace, dataDir: data,
		traceOut: filepath.Join(filepath.Dir(filepath.Clean(data)), "trace.json")}

	order := ws
	if aa {
		// A B ... then ... B A: each workload's two runs sit at
		// different distances from a host mode switch.
		for i := len(ws) - 1; i >= 0; i-- {
			order = append(order, ws[i])
		}
	}
	var reports []*report
	failed := 0
	for _, w := range order {
		rep, err := runWorkload(w, seed, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		reports = append(reports, rep)
		failed += rep.Failed
		printReport(rep, trace)
	}
	if out != "" {
		blob, err := json.MarshalIndent(reports, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, blob, 0o644); err != nil {
			return err
		}
	}
	if aa {
		ok, err := compareAA(reports)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("A/A comparison outside the bounds")
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// printReport lists every metric by name, then the one-line JSON result
// the benchmark contract reads from the last line of standard output.
func printReport(rep *report, trace bool) {
	fmt.Printf("# %s seed=%d rounds=%d window=%.1fs elapsed=%.1fs script=%s data=%s\n",
		rep.Workload, rep.Seed, rep.Rounds, rep.Window, rep.Elapsed, rep.ScriptSum, rep.DataDir)
	shown := rep.Metrics
	if trace {
		shown = rep.Layers
	}
	names := make([]string, 0, len(shown))
	for n := range shown {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := shown[n]
		fmt.Printf("%-34s %14.6g %-6s n=%-4d p95=%-12.6g min=%.6g\n", n, m.Value, m.Unit, m.N, m.P95, m.Min)
	}
	fmt.Printf("%-34s %14d\n%-34s %14d\n", "ops_attempted", rep.Attempted, "ops_failed", rep.Failed)
	if rep.FirstErr != "" {
		fmt.Printf("first failure: %s\n", rep.FirstErr)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, map[string]value{}}
	for n, m := range shown {
		line.Metrics[n] = value{m.Value, m.Unit}
	}
	blob, _ := json.Marshal(line) // plain numbers and strings cannot fail to marshal
	fmt.Println(string(blob))
}

// compareAA prints, per workload and end-to-end metric, both runs'
// values, their ratio and whether it is inside the metric's bound.
func compareAA(reports []*report) (bool, error) {
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return false, fmt.Errorf("-aa reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var contract struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(blob, &contract); err != nil {
		return false, err
	}
	first := map[string]*report{}
	ok := true
	fmt.Println("# A/A: same code, two runs")
	for _, rep := range reports {
		a, seen := first[rep.Workload]
		if !seen {
			first[rep.Workload] = rep
			continue
		}
		for _, m := range contract.EndToEnd {
			x, y := a.Metrics[m.Name].Value, rep.Metrics[m.Name].Value
			ratio := y / x
			verdict := "PASS"
			if ratio > 1+m.Bound || 1/ratio > 1+m.Bound {
				verdict, ok = "FAIL", false
			}
			fmt.Printf("%-16s %-28s %12.6g %12.6g ratio=%.4f bound=%.2f %s\n", rep.Workload, m.Name, x, y, ratio, m.Bound, verdict)
		}
	}
	return ok, nil
}
