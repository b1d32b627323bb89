package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// contract is the part of ../BENCHMARK.json the tests hold the driver to.
type contract struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(blob, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestGeneratorDeterministic: one seed, one op sequence, byte for byte;
// another seed, another sequence.
func TestGeneratorDeterministic(t *testing.T) {
	for _, w := range workloads {
		sum := func(seed int64) uint64 {
			g := newGenerator(seed, w.rows)
			s := newScript(g, w)
			s.load(w)
			return hashOps(g, s.take())
		}
		if a, b := sum(1), sum(1); a != b {
			t.Errorf("%s: seed 1 generated %x then %x", w.name, a, b)
		}
		if sum(1) == sum(2) {
			t.Errorf("%s: seeds 1 and 2 generated the same script", w.name)
		}
	}
}

// TestKernelAllocatesNothing: the calibration kernel must not be able to
// start a collection or be charged an allocation assist, or a product
// change could move it.
func TestKernelAllocatesNothing(t *testing.T) {
	c := newCalibrator()
	c.run()
	if n := testing.AllocsPerRun(10, c.run); n != 0 {
		t.Fatalf("the calibration kernel allocates %v times a run", n)
	}
}

// What a workload was chosen to exercise, and what it was chosen to
// bypass, read off its own trace: without these the README's predictions
// (which layer moves which metric on which workload) pair nothing.
var exercised = map[string][]string{
	"sci_hy_dcz": {"store.segments_skipped_per_query", "store.dcz_page_decodes_per_reopen"},
	"cur_vf_raw": {"vf.cache_hit_rate", "vf.delta_resolves"},
}

var bypassed = map[string][]string{
	"cur_vf_raw":    {"store.segments_skipped_per_query", "store.dcz_page_decodes_per_reopen", "store.dcz_page_decodes_per_query"},
	"flat_tf_write": {"store.dcz_page_decodes_per_reopen", "vf.cache_hit_rate"},
	"sci_hy_dcz":    {"vf.cache_hit_rate", "vf.delta_resolves"},
}

// TestSmoke runs a scale-down of every workload twice, traced, and
// holds it to the contract: every named metric once with its unit, no
// failed operation, exact counts that repeat, and the layers the
// workload exercises and bypasses.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the table has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %q (%s), the table has %q (%s)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := runConfig{loads: 1, rounds: 2, trace: true, dataDir: dir, traceOut: dir + "/trace.json"}
			var reps [2]*report
			for k := range reps {
				rep, err := runWorkload(w.scaled(20), 1, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Failed != 0 {
					t.Fatalf("%d of %d operations failed: %s", rep.Failed, rep.Attempted, rep.FirstErr)
				}
				reps[k] = rep
			}
			rep := reps[0]
			if len(rep.Metrics) != len(c.EndToEnd) {
				t.Errorf("%d end-to-end metrics emitted, contract names %d", len(rep.Metrics), len(c.EndToEnd))
			}
			for _, m := range c.EndToEnd {
				if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end %s: got %+v (present %v), want unit %q and a positive value", m.Name, got, ok, m.Unit)
				}
			}
			if len(rep.Layers) != len(c.PerLayer) {
				t.Errorf("%d per-layer metrics emitted, contract names %d", len(rep.Layers), len(c.PerLayer))
			}
			for _, m := range c.PerLayer {
				if got, ok := rep.Layers[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %q", m.Name, got, ok, m.Unit)
				}
			}
			for _, name := range exercised[w.name] {
				if rep.Layers[name].Value <= 0 {
					t.Errorf("%s is %v: the workload does not exercise what it was chosen for", name, rep.Layers[name].Value)
				}
			}
			for _, name := range bypassed[w.name] {
				if rep.Layers[name].Value != 0 {
					t.Errorf("%s is %v: the workload does not bypass what it was chosen to bypass", name, rep.Layers[name].Value)
				}
			}
			// (ops_attempted is not compared: the traced run commits for as
			// long as a compaction pass takes.)
			if !reflect.DeepEqual(reps[0].Counts, reps[1].Counts) || reps[0].ScriptSum != reps[1].ScriptSum {
				t.Errorf("exact counts differ between two runs:\n%v\n%v", reps[0].Counts, reps[1].Counts)
			}
			for _, name := range []string{"disk_bytes_per_user_byte"} {
				if a, b := reps[0].Metrics[name].Value, reps[1].Metrics[name].Value; a != b {
					t.Errorf("%s is an exact count but read %v then %v", name, a, b)
				}
			}
		})
	}
}

// scaled returns a copy shrunk for the smoke test: same shape, a
// fraction of the rows and operations.
func (w *workload) scaled(div int) *workload {
	c := *w
	c.rows /= div
	c.editRows = max(c.editRows/div, 20)
	c.pointOps = max(c.pointOps/div, 10)
	c.commitOps = max(c.commitOps/div, 1)
	c.mergeOps = max(c.mergeOps/div, 1)
	c.mergeRows = max(c.mergeRows/div, 20)
	c.compactEvery = 2
	return &c
}
