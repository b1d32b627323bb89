package bench

import (
	"context"
	"math/rand"
	"testing"

	"decibel/internal/core"
	"decibel/internal/hy"
	"decibel/internal/query"
	"decibel/internal/tf"
	"decibel/internal/vf"
	"decibel/internal/vgraph"
)

func tinyConfig(s Strategy) Config {
	cfg := DefaultConfig(s)
	cfg.Branches = 5
	cfg.RecordsPerBranch = 120
	cfg.RecordBytes = 128
	cfg.CommitEvery = 40
	cfg.ScienceLifetime = 150
	cfg.CurationDevOps = 100
	cfg.CurationFeatOps = 30
	return cfg
}

func testOpts() core.Options { return core.Options{PageSize: 4096, PoolPages: 32} }

// liveCount counts the records live at a branch head, as a compiled
// query.
func liveCount(t *testing.T, d *Dataset, b *vgraph.Branch) int {
	t.Helper()
	c, err := query.Plan{Table: d.Table.Name(), Branches: []string{b.Name}, AtSeq: -1}.Compile(d.DB)
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.Aggregate(context.Background(), query.AggCount, "")
	if err != nil {
		t.Fatal(err)
	}
	return int(n)
}

func TestLoadDeep(t *testing.T) {
	d, err := Load(t.TempDir(), hy.Factory, testOpts(), tinyConfig(Deep))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if len(d.Branches) != 5 {
		t.Fatalf("branches = %d", len(d.Branches))
	}
	// The deep tail sees all inserted keys (inherits every ancestor).
	tail := d.TailBranch()
	n := liveCount(t, d, tail)
	// 5 branches x 120 ops with ~20% updates: distinct keys below 600.
	if n < 400 || n > 600 {
		t.Fatalf("tail live records = %d", n)
	}
	if n != d.LiveKeys(tail.ID) {
		t.Fatalf("scan %d != tracked %d", n, d.LiveKeys(tail.ID))
	}
	// Earlier branches must be smaller: no inserts after their fork.
	first := d.Branches[0]
	n0 := liveCount(t, d, first)
	if n0 >= n {
		t.Fatalf("root (%d) not smaller than tail (%d)", n0, n)
	}
}

func TestLoadFlat(t *testing.T) {
	d, err := Load(t.TempDir(), tf.Factory, testOpts(), tinyConfig(Flat))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if len(d.Children) != 4 {
		t.Fatalf("children = %d", len(d.Children))
	}
	rootN := liveCount(t, d, d.Mainline)
	child := d.RandomChild(rand.New(rand.NewSource(1)))
	childN := liveCount(t, d, child)
	if childN <= rootN {
		t.Fatalf("child (%d) should exceed root (%d)", childN, rootN)
	}
}

func TestLoadScience(t *testing.T) {
	d, err := Load(t.TempDir(), vf.Factory, testOpts(), tinyConfig(Science))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if len(d.Branches) != 5 {
		t.Fatalf("branches = %d", len(d.Branches))
	}
	if len(d.Merges) != 0 {
		t.Fatal("science strategy must not merge")
	}
	// Oldest/youngest selectors return usable branches.
	o, y := d.OldestActive(), d.YoungestActive()
	for _, b := range []string{o.Name, y.Name} {
		if b == "" {
			t.Fatal("empty branch name")
		}
	}
	n := liveCount(t, d, y)
	if n == 0 {
		t.Fatal("youngest active branch is empty")
	}
}

func TestLoadCuration(t *testing.T) {
	d, err := Load(t.TempDir(), hy.Factory, testOpts(), tinyConfig(Curation))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if len(d.Merges) == 0 {
		t.Fatal("curation produced no merges")
	}
	for _, m := range d.Merges {
		if m.Elapsed <= 0 {
			t.Fatal("merge sample without timing")
		}
	}
	n := liveCount(t, d, d.Mainline)
	if n == 0 {
		t.Fatal("mainline empty after curation load")
	}
}

// TestLoadDeterminism: the same seed yields the same dataset shape
// across engines ("we deterministically seed the random number
// generator to ensure each scheme performs the same set of operations
// in the same order", Section 5.6).
func TestLoadDeterminism(t *testing.T) {
	cfg := tinyConfig(Curation)
	counts := map[string][2]int{}
	for name, f := range map[string]core.Factory{"tf": tf.Factory, "vf": vf.Factory, "hy": hy.Factory} {
		d, err := Load(t.TempDir(), f, testOpts(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := liveCount(t, d, d.Mainline)
		counts[name] = [2]int{n, len(d.Commits)}
		d.Close()
	}
	if counts["tf"] != counts["vf"] || counts["vf"] != counts["hy"] {
		t.Fatalf("engines diverge on identical seed: %v", counts)
	}
}

func TestTableWiseUpdate(t *testing.T) {
	d, err := Load(t.TempDir(), hy.Factory, testOpts(), tinyConfig(Flat))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	st0, _ := d.DB.Stats()
	child := d.Children[0]
	before := liveCount(t, d, child)
	if err := d.TableWiseUpdate(child.ID); err != nil {
		t.Fatal(err)
	}
	after := liveCount(t, d, child)
	if after != before {
		t.Fatalf("live count changed: %d -> %d", before, after)
	}
	st1, _ := d.DB.Stats()
	// Every record was copied: total stored records must grow by the
	// branch's live count (Section 5.5 "will tend to increase the data
	// set size by the current size of that branch").
	if st1.Records < st0.Records+int64(before) {
		t.Fatalf("records %d -> %d, want growth >= %d", st0.Records, st1.Records, before)
	}
}

func TestStrategyString(t *testing.T) {
	cases := map[Strategy]string{Deep: "deep", Flat: "flat", Science: "sci", Curation: "cur"}
	for s, want := range cases {
		if s.String() != want {
			t.Fatalf("%d -> %q", s, s.String())
		}
	}
}
