// Package bench implements Decibel's versioning benchmark (Section 4):
// a seeded data generator and loader that build synthetic versioned
// datasets under the four branching strategies — deep, flat, science
// and curation — with the paper's knobs (update/insert mix, commit
// cadence, interleaved loading, mainline skew), plus the branch
// selection helpers the evaluation queries use (tail, random child,
// oldest/youngest active, mainline/dev/feature).
package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"decibel/internal/core"
	"decibel/internal/record"
	"decibel/internal/vgraph"
)

// Strategy is one of the benchmark's branching strategies (Figure 5).
type Strategy int

// The four branching strategies.
const (
	// Deep is a single linear branch chain: each branch is created from
	// the end of the previous one and, once a branch is created, no
	// further records are inserted into its parent.
	Deep Strategy = iota
	// Flat creates many child branches from a single initial parent.
	Flat
	// Science models data science teams: branches fork from mainline
	// commits (or active branch heads), live for a fixed lifetime, then
	// retire. No merges. Inserts may be skewed toward mainline.
	Science
	// Curation models collaborative curation: development branches fork
	// from mainline and merge back; short-lived feature/fix branches
	// fork from mainline or a dev branch and merge back into their
	// parents.
	Curation
)

// String returns the strategy name as used in the paper's figures.
func (s Strategy) String() string {
	switch s {
	case Deep:
		return "deep"
	case Flat:
		return "flat"
	case Science:
		return "sci"
	case Curation:
		return "cur"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Config tunes the generated dataset. The zero value is not valid; use
// DefaultConfig and override.
type Config struct {
	Strategy         Strategy
	Branches         int     // number of branches to create
	RecordsPerBranch int     // insert/update operations per branch
	RecordBytes      int     // encoded record size (paper: 1024)
	UpdateFrac       float64 // fraction of operations that are updates (paper: 0.2)
	CommitEvery      int     // operations per branch between commits (paper: 10000)
	Seed             int64   // deterministic generator seed
	MainlineSkew     int     // science: mainline receives Skew× the ops of a branch (paper: 2)
	ScienceLifetime  int     // science: ops a branch receives before retiring
	CurationDevOps   int     // curation: ops a dev branch receives before merging back
	CurationFeatOps  int     // curation: ops a feature branch receives before merging back
	ThreeWayMerges   bool    // curation: use field-level merges
	// Clustered selects the benchmark's clustered loading mode (Section
	// 4.2): operations for each branch are batched together instead of
	// interleaved, so tuple-first's shared heap file ends up clustered
	// by branch (the "tuple-first clustered" variant of Figure 7).
	Clustered bool
}

// DefaultConfig returns a laptop-scale configuration that preserves the
// paper's ratios (1 KB records, 20% updates, commits every
// RecordsPerBranch/5 ops).
func DefaultConfig(s Strategy) Config {
	return Config{
		Strategy:         s,
		Branches:         10,
		RecordsPerBranch: 1000,
		RecordBytes:      1024,
		UpdateFrac:       0.2,
		CommitEvery:      200,
		Seed:             1,
		MainlineSkew:     2,
		ScienceLifetime:  2000,
		CurationDevOps:   1500,
		CurationFeatOps:  300,
	}
}

// Dataset is a loaded benchmark dataset plus the bookkeeping the
// evaluation queries need.
type Dataset struct {
	DB     *core.Database
	Table  *core.Table
	Schema *record.Schema
	Cfg    Config

	Mainline *vgraph.Branch
	// Branches in creation order (mainline first).
	Branches []*vgraph.Branch
	// Commits in creation order.
	Commits []*vgraph.Commit
	// Per-role branch sets for query targeting.
	Children []*vgraph.Branch // flat: children of the root
	Active   []*vgraph.Branch // science/curation: currently active branches
	Retired  []*vgraph.Branch // science: retired branches
	Devs     []*vgraph.Branch // curation: active development branches
	Feats    []*vgraph.Branch // curation: active feature branches

	// Merge performance samples (curation): stats plus wall time.
	Merges []MergeSample

	LoadTime time.Duration

	rng    *rand.Rand
	nextPK int64
	keys   map[vgraph.BranchID][]int64 // live keys per branch (for updates)
	since  map[vgraph.BranchID]int     // ops since last commit
}

// MergeSample is one merge measurement for Table 3.
type MergeSample struct {
	Stats   core.MergeStats
	Elapsed time.Duration
}

// Load builds a dataset at dir with the given engine and configuration.
func Load(dir string, factory core.Factory, opt core.Options, cfg Config) (*Dataset, error) {
	start := time.Now()
	// A new dataset: factory's engine creates it.
	db, err := core.Open(dir, "", func(string) (core.Factory, error) { return factory, nil }, opt)
	if err != nil {
		return nil, err
	}
	schema := record.Benchmark(cfg.RecordBytes)
	if _, err := db.CreateTable("r", schema); err != nil {
		db.Close()
		return nil, err
	}
	d := &Dataset{
		DB:     db,
		Schema: schema,
		Cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		nextPK: 1,
		keys:   make(map[vgraph.BranchID][]int64),
		since:  make(map[vgraph.BranchID]int),
	}
	tbl, _ := db.Table("r")
	d.Table = tbl
	master, c0, err := db.Init("benchmark load")
	if err != nil {
		db.Close()
		return nil, err
	}
	d.Mainline = master
	d.Branches = append(d.Branches, master)
	d.Commits = append(d.Commits, c0)
	d.keys[master.ID] = nil

	switch cfg.Strategy {
	case Deep:
		err = d.loadDeep()
	case Flat:
		err = d.loadFlat()
	case Science:
		err = d.loadScience()
	case Curation:
		err = d.loadCuration()
	default:
		err = fmt.Errorf("bench: unknown strategy %d", cfg.Strategy)
	}
	if err != nil {
		db.Close()
		return nil, err
	}
	// Final commit on every branch with pending operations, so head
	// state is durable.
	for _, b := range d.Branches {
		if d.since[b.ID] > 0 {
			if err := d.commit(b.ID); err != nil {
				db.Close()
				return nil, err
			}
		}
	}
	if err := db.Flush(); err != nil {
		db.Close()
		return nil, err
	}
	d.LoadTime = time.Since(start)
	return d, nil
}

// Close releases the dataset.
func (d *Dataset) Close() error { return d.DB.Close() }

// op performs one insert or update on a branch, per the configured mix.
func (d *Dataset) op(b vgraph.BranchID) error {
	keys := d.keys[b]
	rec := record.New(d.Schema)
	if len(keys) > 0 && d.rng.Float64() < d.Cfg.UpdateFrac {
		rec.SetPK(keys[d.rng.Intn(len(keys))])
	} else {
		rec.SetPK(d.nextPK)
		d.keys[b] = append(keys, d.nextPK)
		d.nextPK++
	}
	for i := 1; i < d.Schema.NumColumns(); i++ {
		rec.Set(i, d.rng.Int63())
	}
	if err := d.Table.Insert(b, rec); err != nil {
		return err
	}
	d.since[b]++
	if d.since[b] >= d.Cfg.CommitEvery {
		return d.commit(b)
	}
	return nil
}

func (d *Dataset) commit(b vgraph.BranchID) error {
	c, err := d.DB.Commit(b, "load")
	if err != nil {
		return err
	}
	d.Commits = append(d.Commits, c)
	d.since[b] = 0
	return nil
}

// branchFromHead creates and registers a branch off another branch's
// head, committing the parent first if it has pending operations (a
// branch point must be a commit).
func (d *Dataset) branchFromHead(name string, parent vgraph.BranchID) (*vgraph.Branch, error) {
	if d.since[parent] > 0 {
		if err := d.commit(parent); err != nil {
			return nil, err
		}
	}
	pb, _ := d.DB.Graph().Branch(parent)
	b, err := d.DB.Branch(name, pb.Head)
	if err != nil {
		return nil, err
	}
	d.Branches = append(d.Branches, b)
	d.keys[b.ID] = append([]int64(nil), d.keys[parent]...)
	return b, nil
}

// loadDeep builds the linear chain: branch i+1 forks from the end of
// branch i after branch i received its full quota.
func (d *Dataset) loadDeep() error {
	cur := d.Mainline
	for i := 0; ; i++ {
		for n := 0; n < d.Cfg.RecordsPerBranch; n++ {
			if err := d.op(cur.ID); err != nil {
				return err
			}
		}
		if i == d.Cfg.Branches-1 {
			break
		}
		nb, err := d.branchFromHead(fmt.Sprintf("deep%d", i+1), cur.ID)
		if err != nil {
			return err
		}
		cur = nb
	}
	return nil
}

// TailBranch returns the most recently created branch (the deep tail).
func (d *Dataset) TailBranch() *vgraph.Branch { return d.Branches[len(d.Branches)-1] }

// loadFlat gives the root its quota, then forks Branches-1 children and
// interleaves their operations uniformly at random (the paper's
// interleaved loading mode).
func (d *Dataset) loadFlat() error {
	for n := 0; n < d.Cfg.RecordsPerBranch; n++ {
		if err := d.op(d.Mainline.ID); err != nil {
			return err
		}
	}
	for i := 1; i < d.Cfg.Branches; i++ {
		nb, err := d.branchFromHead(fmt.Sprintf("flat%d", i), d.Mainline.ID)
		if err != nil {
			return err
		}
		d.Children = append(d.Children, nb)
	}
	if d.Cfg.Clustered {
		// Clustered mode: each child receives its whole quota in one
		// batch, so its records are contiguous in shared storage.
		for _, child := range d.Children {
			for n := 0; n < d.Cfg.RecordsPerBranch; n++ {
				if err := d.op(child.ID); err != nil {
					return err
				}
			}
		}
		return nil
	}
	total := (d.Cfg.Branches - 1) * d.Cfg.RecordsPerBranch
	for n := 0; n < total; n++ {
		child := d.Children[d.rng.Intn(len(d.Children))]
		if err := d.op(child.ID); err != nil {
			return err
		}
	}
	return nil
}

// RandomChild returns a uniformly random flat child.
func (d *Dataset) RandomChild(r *rand.Rand) *vgraph.Branch {
	return d.Children[r.Intn(len(d.Children))]
}

// loadScience interleaves operations across mainline and active working
// branches (mainline favored by MainlineSkew), forking a new working
// branch from the mainline head at regular intervals and retiring each
// after ScienceLifetime operations.
func (d *Dataset) loadScience() error {
	total := d.Cfg.Branches * d.Cfg.RecordsPerBranch
	spawnEvery := total / d.Cfg.Branches
	opsOn := make(map[vgraph.BranchID]int)
	nb := 1
	for n := 0; n < total; n++ {
		if n%spawnEvery == 0 && nb < d.Cfg.Branches {
			var b *vgraph.Branch
			var err error
			// Mostly fork from mainline commits; occasionally from an
			// active working branch head (Section 4.1).
			if len(d.Active) > 0 && d.rng.Intn(4) == 0 {
				parent := d.Active[d.rng.Intn(len(d.Active))]
				b, err = d.branchFromHead(fmt.Sprintf("sci%d", nb), parent.ID)
			} else {
				b, err = d.branchFromHead(fmt.Sprintf("sci%d", nb), d.Mainline.ID)
			}
			if err != nil {
				return err
			}
			d.Active = append(d.Active, b)
			nb++
		}
		// Pick a target: mainline weighted by skew against active branches.
		targets := len(d.Active) + d.Cfg.MainlineSkew
		t := d.rng.Intn(targets)
		var b *vgraph.Branch
		if t < d.Cfg.MainlineSkew || len(d.Active) == 0 {
			b = d.Mainline
		} else {
			b = d.Active[t-d.Cfg.MainlineSkew]
		}
		if err := d.op(b.ID); err != nil {
			return err
		}
		if b != d.Mainline {
			opsOn[b.ID]++
			if opsOn[b.ID] >= d.Cfg.ScienceLifetime {
				if err := d.retire(b); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (d *Dataset) retire(b *vgraph.Branch) error {
	if d.since[b.ID] > 0 {
		if err := d.commit(b.ID); err != nil {
			return err
		}
	}
	if err := d.DB.Graph().SetActive(b.ID, false); err != nil {
		return err
	}
	for i, a := range d.Active {
		if a.ID == b.ID {
			d.Active = append(d.Active[:i], d.Active[i+1:]...)
			break
		}
	}
	d.Retired = append(d.Retired, b)
	return nil
}

// OldestActive returns the oldest still-active working branch (or
// mainline when none).
func (d *Dataset) OldestActive() *vgraph.Branch {
	if len(d.Active) == 0 {
		return d.Mainline
	}
	return d.Active[0]
}

// YoungestActive returns the most recently created active branch (or
// mainline when none).
func (d *Dataset) YoungestActive() *vgraph.Branch {
	if len(d.Active) == 0 {
		return d.Mainline
	}
	return d.Active[len(d.Active)-1]
}

// loadCuration runs the curation lifecycle: dev branches fork from
// mainline and merge back after CurationDevOps; feature branches fork
// from mainline or a dev branch and merge back into their parent after
// CurationFeatOps. Operations go to a uniformly random active head.
func (d *Dataset) loadCuration() error {
	type liveBranch struct {
		b      *vgraph.Branch
		parent vgraph.BranchID
		quota  int
		isDev  bool
	}
	var live []*liveBranch
	total := d.Cfg.Branches * d.Cfg.RecordsPerBranch
	spawnEvery := total / d.Cfg.Branches
	nb := 1
	mergeKind := core.TwoWay
	if d.Cfg.ThreeWayMerges {
		mergeKind = core.ThreeWay
	}

	refreshRoles := func() {
		d.Devs = d.Devs[:0]
		d.Feats = d.Feats[:0]
		d.Active = d.Active[:0]
		for _, lb := range live {
			d.Active = append(d.Active, lb.b)
			if lb.isDev {
				d.Devs = append(d.Devs, lb.b)
			} else {
				d.Feats = append(d.Feats, lb.b)
			}
		}
	}
	mergeBack := func(lb *liveBranch) error {
		if d.since[lb.b.ID] > 0 {
			if err := d.commit(lb.b.ID); err != nil {
				return err
			}
		}
		if d.since[lb.parent] > 0 {
			if err := d.commit(lb.parent); err != nil {
				return err
			}
		}
		parent, _ := d.DB.Graph().Branch(lb.parent)
		t0 := time.Now()
		mc, st, err := d.DB.MergeContext(context.Background(), parent.Name, lb.b.Name, "merge back", mergeKind, false)
		if err != nil {
			return err
		}
		d.Merges = append(d.Merges, MergeSample{Stats: st, Elapsed: time.Since(t0)})
		d.Commits = append(d.Commits, mc)
		// Merged keys flow into the parent.
		seen := make(map[int64]bool, len(d.keys[lb.parent]))
		for _, k := range d.keys[lb.parent] {
			seen[k] = true
		}
		for _, k := range d.keys[lb.b.ID] {
			if !seen[k] {
				d.keys[lb.parent] = append(d.keys[lb.parent], k)
			}
		}
		return d.DB.Graph().SetActive(lb.b.ID, false)
	}

	for n := 0; n < total; n++ {
		if n%spawnEvery == 0 && nb < d.Cfg.Branches {
			isDev := d.rng.Intn(3) != 0 // two thirds dev, one third feature/fix
			parent := d.Mainline.ID
			quota := d.Cfg.CurationDevOps
			name := fmt.Sprintf("dev%d", nb)
			if !isDev {
				quota = d.Cfg.CurationFeatOps
				name = fmt.Sprintf("feat%d", nb)
				// Feature branches fork from mainline or an active dev.
				var devs []*liveBranch
				for _, lb := range live {
					if lb.isDev {
						devs = append(devs, lb)
					}
				}
				if len(devs) > 0 && d.rng.Intn(2) == 0 {
					parent = devs[d.rng.Intn(len(devs))].b.ID
				}
			}
			b, err := d.branchFromHead(name, parent)
			if err != nil {
				return err
			}
			live = append(live, &liveBranch{b: b, parent: parent, quota: quota, isDev: isDev})
			refreshRoles()
			nb++
		}
		// Uniform choice across mainline and live heads.
		idx := d.rng.Intn(len(live) + 1)
		if idx == len(live) {
			if err := d.op(d.Mainline.ID); err != nil {
				return err
			}
		} else {
			lb := live[idx]
			if err := d.op(lb.b.ID); err != nil {
				return err
			}
			lb.quota--
			if lb.quota <= 0 {
				// Merge back; feature branches whose dev parent already
				// merged away still merge into that (inactive) parent,
				// whose changes later merge to mainline transitively only
				// if the parent merges again — matching the benchmark's
				// "merged back into their parents".
				if err := mergeBack(lb); err != nil {
					return err
				}
				for i, l := range live {
					if l == lb {
						live = append(live[:i], live[i+1:]...)
						break
					}
				}
				refreshRoles()
			}
		}
	}
	// Merge any stragglers back so the dataset ends quiesced.
	for len(live) > 0 {
		lb := live[len(live)-1]
		if err := mergeBack(lb); err != nil {
			return err
		}
		live = live[:len(live)-1]
	}
	refreshRoles()
	return nil
}

// RandomDev returns a random active development branch (mainline if
// none are active).
func (d *Dataset) RandomDev(r *rand.Rand) *vgraph.Branch {
	if len(d.Devs) == 0 {
		return d.Mainline
	}
	return d.Devs[r.Intn(len(d.Devs))]
}

// RandomFeature returns a random active feature branch (mainline if
// none are active).
func (d *Dataset) RandomFeature(r *rand.Rand) *vgraph.Branch {
	if len(d.Feats) == 0 {
		return d.Mainline
	}
	return d.Feats[r.Intn(len(d.Feats))]
}

// TableWiseUpdate rewrites every live record in the branch (Section
// 5.5): each record is copied with fresh values, roughly doubling the
// branch's storage footprint.
func (d *Dataset) TableWiseUpdate(b vgraph.BranchID) error {
	keys := append([]int64(nil), d.keys[b]...)
	for _, pk := range keys {
		rec := record.New(d.Schema)
		rec.SetPK(pk)
		for i := 1; i < d.Schema.NumColumns(); i++ {
			rec.Set(i, d.rng.Int63())
		}
		if err := d.Table.Insert(b, rec); err != nil {
			return err
		}
		d.since[b]++
		if d.since[b] >= d.Cfg.CommitEvery {
			if err := d.commit(b); err != nil {
				return err
			}
		}
	}
	if d.since[b] > 0 {
		return d.commit(b)
	}
	return nil
}

// LiveKeys returns the number of live keys tracked for a branch.
func (d *Dataset) LiveKeys(b vgraph.BranchID) int { return len(d.keys[b]) }
