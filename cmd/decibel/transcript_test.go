package main

// The CLI transcript golden: a fixed command list replayed through run()
// against one fresh dataset, its stdout compared byte for byte with
// testdata/transcript.txt. It pins what every command prints, so a
// change to how the CLI reaches the facade cannot move its output
// unnoticed. Regenerate after a deliberate output change with
//
//	go test ./cmd/decibel -run TestCLITranscript -update

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"decibel"
)

var update = flag.Bool("update", false, "rewrite testdata/transcript.txt from this run")

// transcript is the replayed command list. log <branch> (wall-clock
// times) and stats (byte counts) are left out: their output is not a
// function of the commands alone.
var transcript = [][]string{
	{"init", "qty:int32,price:float64,sku:bytes8,stock"},
	{"insert", "master", "1", "3", "9.5", "apple", "10"},
	{"load", "master", "2:5:1.25:pear:20", "3:7:4.5:plum:30", "4:1:12:fig:40"},
	{"commit", "master", "first", "load"},
	{"delete", "master", "4"},
	{"branch", "dev", "master"},
	{"insert", "dev", "5", "2", "3.5", "kiwi", "50"},
	{"load", "dev", "6:9:8.5:lime:60", "1:3:9.75:apple:11"},
	{"delete", "dev", "2"},
	{"commit", "dev", "dev", "work"},
	{"scan", "master"},
	{"scan", "dev"},
	{"checkout", "master@1"},
	{"checkout", "master"},
	{"diff", "dev", "master"},
	{"select", "-where", "price<9"},
	{"select", "-branch", "dev", "-where", "price>=3.5 && sku^=l", "-cols", "sku,price"},
	{"select", "-branch", "dev", "-order", "price:desc", "-limit", "2"},
	{"select", "-branch", "dev", "-count"},
	{"select", "-heads"},
	{"select", "-heads", "-count"},
	{"select", "-branch", "master,dev", "-where", "qty>2"},
	{"select", "-branch", "master", "-at", "2", "-where", "stock>=30"},
	{"select", "-diff", "dev,master", "-order", "price"},
	{"select", "-diff", "dev,master", "-count"},
	{"select", "-branch", "dev", "-join", "r:id@master"},
	{"select", "-branch", "dev", "-join", "r:qty=id", "-count"},
	{"select", "-branch", "dev", "-group-by", "qty", "-agg", "count,sum:price,max:stock"},
	{"select", "-heads", "-group-by", "sku"},
	{"merge", "master", "dev"},
	{"scan", "master"},
	{"alter", "master", "add", "rating:float64=4.5"},
	{"select", "-cols", "sku,rating"},
	{"alter", "master", "drop", "stock"},
	{"scan", "master"},
	{"checkout", "master@3"},
}

func TestCLITranscript(t *testing.T) {
	dir := t.TempDir()
	var got strings.Builder
	for _, args := range transcript {
		got.WriteString("$ decibel")
		for _, a := range args {
			if strings.ContainsAny(a, " <>&^") {
				a = "'" + a + "'"
			}
			got.WriteString(" " + a)
		}
		got.WriteString("\n")
		out, err := captureStdout(t, func() error { return run(dir, decibel.DefaultEngine, "r", args) })
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		got.WriteString(strings.ReplaceAll(out, dir, "<dir>"))
	}

	golden := filepath.Join("testdata", "transcript.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("transcript differs from %s (rerun with -update after a deliberate change):\n%s", golden, got.String())
	}
}
