package main

// CLI coverage for the join/group-by flags: the -join spec grammar,
// the -agg list grammar, and select round-trips through run() whose
// failure modes must surface the facade's sentinel errors (the same
// taxonomy the server maps to stable wire codes); and checkout's
// positional reads.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"

	"decibel"
)

// buildCLIDataset creates a small orders/users dataset in dir with the
// facade, closed again so run() can reopen it.
func buildCLIDataset(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	db, err := decibel.Open(dir, decibel.WithEngine(decibel.DefaultEngine))
	if err != nil {
		t.Fatal(err)
	}
	users := decibel.NewSchema().Int64("id").Int64("region").Bytes("name", 12).MustBuild()
	orders := decibel.NewSchema().Int64("id").Int64("user_id").Int64("qty").Float64("price").MustBuild()
	if _, err := db.CreateTable("users", users); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("orders", orders); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Init("init"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Commit("master", func(tx *decibel.Tx) error {
		for pk := int64(0); pk < 8; pk++ {
			rec := decibel.NewRecord(users)
			rec.SetPK(pk)
			rec.Set(1, pk%3)
			if err := rec.SetBytes(2, []byte(fmt.Sprintf("user-%d", pk))); err != nil {
				return err
			}
			if err := tx.Insert("users", rec); err != nil {
				return err
			}
		}
		for pk := int64(0); pk < 40; pk++ {
			rec := decibel.NewRecord(orders)
			rec.SetPK(pk)
			rec.Set(1, pk%8)
			rec.Set(2, pk%5)
			rec.SetFloat64(3, float64(pk)+0.5)
			if err := tx.Insert("orders", rec); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Branch("master", "dev"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestParseJoinSpec(t *testing.T) {
	dir := buildCLIDataset(t)
	db, err := decibel.Open(dir, decibel.WithEngine(decibel.DefaultEngine))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for _, tc := range []struct {
		spec        string
		left, right string
		ok          bool
	}{
		{"users:user_id=id", "user_id", "id", true},
		{"users:id", "id", "id", true}, // right defaults to left
		{"users:user_id=id@dev", "user_id", "id", true},
		{"users", "", "", false},  // no column
		{"users:", "", "", false}, // empty column
		{":user_id", "", "", false},
		{"users:=id", "", "", false},
	} {
		jq, key, err := parseJoin(db, tc.spec)
		if tc.ok != (err == nil) {
			t.Fatalf("parseJoin(%q): err = %v, want ok=%v", tc.spec, err, tc.ok)
		}
		if !tc.ok {
			continue
		}
		if jq == nil || key.Left != tc.left || key.Right != tc.right {
			t.Fatalf("parseJoin(%q) = (%v, %v)", tc.spec, key.Left, key.Right)
		}
	}
}

func TestParseAggsSpec(t *testing.T) {
	aggs, labels, err := parseAggs("count,sum:price,avg:price,min:qty,max:qty")
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 5 || len(labels) != 5 {
		t.Fatalf("parsed %d aggs, %d labels, want 5", len(aggs), len(labels))
	}
	if labels[1] != "sum:price" || labels[2] != "avg:price" {
		t.Fatalf("labels = %v", labels)
	}
	for _, bad := range []string{"median:price", "sum", "min", "sum:,count"} {
		if _, _, err := parseAggs(bad); err == nil {
			t.Fatalf("parseAggs(%q) accepted", bad)
		}
	}
	if aggs, labels, err = parseAggs(""); err != nil || aggs != nil || labels != nil {
		t.Fatalf("empty -agg should parse to nothing, got (%v, %v, %v)", aggs, labels, err)
	}
}

func TestSelectJoinGroupCLI(t *testing.T) {
	dir := buildCLIDataset(t)
	engine := decibel.DefaultEngine
	sel := func(args ...string) error {
		return run(dir, engine, "orders", append([]string{"select"}, args...))
	}

	// Happy paths: joined tuples, joined count, grouped aggregates plain
	// and over a join, branch-pinned leg.
	for _, args := range [][]string{
		{"-branch", "master", "-join", "users:user_id=id"},
		{"-branch", "master", "-join", "users:user_id=id", "-count"},
		{"-branch", "master", "-join", "users:user_id=id@dev"},
		{"-branch", "master", "-group-by", "qty", "-agg", "count,sum:price,avg:price"},
		{"-branch", "master", "-group-by", "qty"}, // DISTINCT
		{"-branch", "master", "-join", "users:user_id=id", "-group-by", "region", "-agg", "count,sum:qty"},
		{"-branch", "master", "-where", "qty<3", "-join", "users:user_id=id", "-count"},
	} {
		if err := sel(args...); err != nil {
			t.Fatalf("select %v: %v", args, err)
		}
	}

	// Error taxonomy: the CLI surfaces the facade's sentinels.
	for _, tc := range []struct {
		args []string
		want error
	}{
		{[]string{"-branch", "master", "-join", "users:qty=region"}, nil}, // joinable int key: control
		{[]string{"-branch", "master", "-join", "users:price=id"}, decibel.ErrBadQuery},
		{[]string{"-branch", "master", "-join", "users:user_id=name"}, decibel.ErrTypeMismatch},
		{[]string{"-branch", "master", "-join", "users:nope=id"}, decibel.ErrNoSuchColumn},
		{[]string{"-branch", "master", "-group-by", "nope", "-agg", "count"}, decibel.ErrNoSuchColumn},
		{[]string{"-branch", "master", "-order", "qty", "-group-by", "qty", "-agg", "count"}, decibel.ErrBadQuery},
		{[]string{"-branch", "master", "-group-by", "qty,qty", "-agg", "count"}, decibel.ErrBadQuery},
	} {
		err := sel(tc.args...)
		if tc.want == nil {
			if err != nil {
				t.Fatalf("select %v: %v", tc.args, err)
			}
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Fatalf("select %v: err = %v, want %v", tc.args, err, tc.want)
		}
	}

	// Shape misuse reaches the planner, which rejects it with
	// ErrBadQuery: the CLI keeps no shape rules of its own.
	for _, args := range [][]string{
		{"-branch", "master", "-agg", "count"},                       // -agg without -group-by
		{"-diff", "master,dev", "-join", "users:user_id=id"},         // join over diff
		{"-heads", "-join", "users:user_id=id"},                      // join over heads
		{"-diff", "master,dev", "-group-by", "qty", "-agg", "count"}, // group over diff
		{"-heads", "-branch", "master"},                              // heads and branches
		{"-diff", "master,dev", "-branch", "master"},                 // diff over branches
		{"-diff", "master,dev", "-at", "0"},                          // diff of a commit
	} {
		if err := sel(args...); !errors.Is(err, decibel.ErrBadQuery) {
			t.Fatalf("select %v: err = %v, want ErrBadQuery", args, err)
		}
	}
	// Flag syntax errors fail before any query runs.
	for _, args := range [][]string{
		{"-branch", "master", "-join", "users"},                        // malformed spec
		{"-branch", "master", "-group-by", "qty", "-agg", "median:id"}, // unknown aggregate
		{"-diff", "master"}, // one diff side
	} {
		if err := sel(args...); err == nil {
			t.Fatalf("select %v unexpectedly succeeded", args)
		}
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	ferr := fn()
	os.Stdout = stdout
	w.Close()
	return <-out, ferr
}

// TestCheckoutCLI: checkout prints a branch's head, or its n-th commit,
// read through the query builder; a commit number past the branch's
// history or below zero fails with ErrNoSuchCommit, through checkout and
// through select's -at alike.
func TestCheckoutCLI(t *testing.T) {
	dir := t.TempDir()
	engine := decibel.DefaultEngine
	db, err := decibel.Open(dir, decibel.WithEngine(engine))
	if err != nil {
		t.Fatal(err)
	}
	schema := decibel.NewSchema().Int64("id").Int64("v").MustBuild()
	if _, err := db.CreateTable("r", schema); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Init("init"); err != nil { // master@0: no records
		t.Fatal(err)
	}
	for pk := int64(1); pk <= 2; pk++ { // master@1: one record, master@2: two
		if _, err := db.Commit("master", func(tx *decibel.Tx) error {
			rec := decibel.NewRecord(schema)
			rec.SetPK(pk)
			return tx.Insert("r", rec)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		arg  string
		want int
	}{{"master@0", 0}, {"master@1", 1}, {"master", 2}} {
		out, err := captureStdout(t, func() error { return run(dir, engine, "r", []string{"checkout", tc.arg}) })
		if err != nil {
			t.Fatalf("checkout %s: %v", tc.arg, err)
		}
		if !strings.HasPrefix(out, "checked out "+tc.arg+": commit ") || !strings.HasSuffix(out, fmt.Sprintf("\n%d records\n", tc.want)) {
			t.Fatalf("checkout %s printed %q, want a header and %d records", tc.arg, out, tc.want)
		}
	}
	for _, args := range [][]string{
		{"checkout", "master@99"},
		{"checkout", "master@-1"},
		{"select", "-at", "99"},
		{"select", "-at", "-3"},
		{"select", "-at", "-1"},
	} {
		if _, err := captureStdout(t, func() error { return run(dir, engine, "r", args) }); !errors.Is(err, decibel.ErrNoSuchCommit) {
			t.Fatalf("%v: err = %v, want ErrNoSuchCommit", args, err)
		}
	}
}

// TestInsertRejectsInt32Overflow: an insert whose value does not fit an
// int32 column fails naming the column, instead of committing the value
// wrapped (4294967297 would store as 1); an in-range one commits.
func TestInsertRejectsInt32Overflow(t *testing.T) {
	dir := t.TempDir()
	engine := decibel.DefaultEngine
	cli := func(args ...string) error {
		_, err := captureStdout(t, func() error { return run(dir, engine, "r", args) })
		return err
	}
	if err := cli("init", "qty:int32"); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range [][]string{
		{"insert", "master", "1", "4294967297"},
		{"load", "master", "2:-2147483649"},
	} {
		if err := cli(cmd...); err == nil || !strings.Contains(err.Error(), `"qty"`) {
			t.Fatalf("%v: err = %v, want an error naming \"qty\"", cmd, err)
		}
	}
	if err := cli("insert", "master", "3", "2147483647"); err != nil {
		t.Fatal(err)
	}
	db, err := decibel.Open(dir, decibel.WithEngine(engine))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rows, errf := db.Rows("r", "master")
	var got []string
	for rec := range rows {
		got = append(got, fmt.Sprintf("%d=%d", rec.PK(), rec.Get(1)))
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, " ") != "3=2147483647" {
		t.Fatalf("master holds %v, want only 3=2147483647", got)
	}
}

// TestWriteToBranchBehindSchema: insert and load on a branch whose head
// predates the newest schema encode under the branch's own schema, as
// /v1/commit does, instead of failing on a column the branch has not
// added yet.
func TestWriteToBranchBehindSchema(t *testing.T) {
	dir := t.TempDir()
	engine := decibel.DefaultEngine
	for _, cmd := range [][]string{
		{"init", "qty"},
		{"insert", "master", "1", "5"},
		{"branch", "dev", "master"},
		{"alter", "master", "add", "price:float64=1.5"},
		{"insert", "dev", "2", "7"},
		{"load", "dev", "3:9"},
	} {
		if _, err := captureStdout(t, func() error { return run(dir, engine, "r", cmd) }); err != nil {
			t.Fatalf("%v: %v", cmd, err)
		}
	}
	db, err := decibel.Open(dir, decibel.WithEngine(engine))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rows, errf := db.Rows("r", "dev")
	var got []string
	for rec := range rows {
		got = append(got, fmt.Sprintf("%d=%d/%d", rec.PK(), rec.Get(1), rec.Schema().NumColumns()))
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, " ") != "1=5/2 2=7/2 3=9/2" {
		t.Fatalf("dev holds %v, want 1=5/2 2=7/2 3=9/2 (two columns: dev predates price)", got)
	}
}

// TestStatsPrintsRecordedEngine: a dataset made with -engine vf is
// opened as version-first by every later invocation, whatever -engine
// says: stats names the recorded engine and counts its live rows, and a
// scan under another -engine reads them.
func TestStatsPrintsRecordedEngine(t *testing.T) {
	dir := t.TempDir()
	cli := func(engine string, args ...string) string {
		t.Helper()
		out, err := captureStdout(t, func() error { return run(dir, engine, "r", args) })
		if err != nil {
			t.Fatalf("%s %v: %v", engine, args, err)
		}
		return out
	}
	cli("vf", "init", "qty")
	cli("vf", "load", "master", "1:10", "2:20", "3:30")
	out := cli(decibel.DefaultEngine, "stats")
	if !strings.Contains(out, "engine:         version-first ") || !strings.Contains(out, "(3 live across heads)") {
		t.Fatalf("stats without -engine vf:\n%s", out)
	}
	if out := cli("tf", "scan", "master"); !strings.Contains(out, "3 records") {
		t.Fatalf("scan under -engine tf:\n%s", out)
	}
}

// TestErrorPrefixOnce runs the CLI's main in a child process of the
// test binary: an error that already names the program, like the
// facade's unknown-engine error, is printed with one "decibel:" prefix.
func TestErrorPrefixOnce(t *testing.T) {
	if args := os.Getenv("DECIBEL_CLI_ARGS"); args != "" {
		os.Args = append([]string{"decibel"}, strings.Fields(args)...)
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestErrorPrefixOnce$")
	cmd.Env = append(os.Environ(), "DECIBEL_CLI_ARGS=-dir "+t.TempDir()+" -engine bogus init a")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("-engine bogus init a: exit %v, want status 1; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "unknown engine") || strings.Count(string(out), "decibel:") != 1 {
		t.Fatalf("want one \"decibel:\" before the unknown-engine error, got:\n%s", out)
	}
}
