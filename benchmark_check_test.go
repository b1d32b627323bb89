package decibel_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkDriverBuilds runs the benchmark driver's own check —
// go vet plus its generator and smoke tests. The driver is a module of
// its own (benchmark/go.mod) that imports this module's internals, so
// `go build ./... && go test ./...` would otherwise neither compile it
// nor notice a product change that breaks one of its imports.
func TestBenchmarkDriverBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark driver's vet and smoke tests (~12 s warm, ~50 s cold)")
	}
	bash, err := exec.LookPath("bash")
	if err != nil {
		t.Skip("no bash")
	}
	if _, err := os.Stat("benchmark/run.sh"); err != nil {
		t.Skip("no benchmark/ in this checkout")
	}
	if out, err := exec.Command(bash, "benchmark/run.sh", "check").CombinedOutput(); err != nil {
		t.Fatalf("benchmark/run.sh check: %v\n%s", err, out)
	}
}
