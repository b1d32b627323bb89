package decibel_test

import (
	"expvar"
	"os"
	"regexp"
	"strconv"
	"testing"
)

// expvarInt reads the process-global counter published under name,
// the way the benchmark driver and scripts/server-smoke.sh read it from
// /debug/vars. A name nothing publishes, or one that does not read as
// an integer, fails the test instead of reading 0.
func expvarInt(t testing.TB, name string) int64 {
	t.Helper()
	v := expvar.Get(name)
	if v == nil {
		t.Fatalf("expvar %q not published", name)
	}
	n, err := strconv.ParseInt(v.String(), 10, 64)
	if err != nil {
		t.Fatalf("expvar %q = %q: %v", name, v.String(), err)
	}
	return n
}

// counterReaders are the files outside the Go tests that read counters
// by name, with the pattern that finds each name they read.
var counterReaders = []struct {
	path string
	name *regexp.Regexp
}{
	{"benchmark/ladder.go", regexp.MustCompile(`"(decibel\.[a-z_.]+)"`)},
	{"benchmark/run.go", regexp.MustCompile(`"(decibel\.[a-z_.]+)"`)},
	{"scripts/server-smoke.sh", regexp.MustCompile(`\bvar (decibel\.[a-z_.]+)`)},
}

// TestPublishedCounters checks that every counter name the benchmark
// driver and the server smoke test read is published and reads as an
// integer. The driver reads a missing counter as 0, so a counter renamed
// or dropped would otherwise zero its per-layer numbers silently.
func TestPublishedCounters(t *testing.T) {
	for _, r := range counterReaders {
		src, err := os.ReadFile(r.path)
		if err != nil {
			t.Fatal(err)
		}
		found := r.name.FindAllSubmatch(src, -1)
		if len(found) == 0 {
			t.Fatalf("%s reads no counter by name", r.path)
		}
		for _, m := range found {
			expvarInt(t, string(m[1]))
		}
	}
}
