package vgraph

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"decibel/internal/wal"
)

// dump renders everything the graph answers — branches, heads, each
// branch's commits, the LCA of every pair of heads, the commit count —
// so that two graphs are equal exactly when their dumps are. Commit
// times are left out: a logged graph and its in-memory twin are built
// a moment apart.
func dump(g *Graph) string {
	var sb strings.Builder
	sb.WriteString(dumpState(g))
	bs := g.Branches()
	for _, a := range bs {
		for _, b := range bs {
			fmt.Fprintf(&sb, "%d ", g.LCA(a.Head, b.Head))
		}
	}
	return sb.String()
}

// dumpState is dump without the LCAs, which the rest determines: the
// cheap comparison, for the loop that reopens the log at every byte.
func dumpState(g *Graph) string {
	var sb strings.Builder
	bs := g.Branches()
	fmt.Fprintf(&sb, "commits=%d init=%v\n", g.NumCommits(), g.Initialized())
	for _, b := range bs {
		head, _ := g.Head(b.ID)
		byName, _ := g.BranchByName(b.Name)
		fmt.Fprintf(&sb, "branch %+v head=%d byName=%d n=%d:", *b, head, byName.ID, g.NumCommitsOn(b.ID))
		for i, c := range g.CommitsOnBranch(b.ID) {
			at, ok := g.CommitAt(b.ID, i)
			byID, _ := g.Commit(c.ID)
			if !ok || at != c || byID != c {
				fmt.Fprintf(&sb, " !index(%d)", c.ID)
			}
			cc := *c
			cc.Time = 0
			fmt.Fprintf(&sb, " %+v", cc)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// op is one version-control operation, replayable on any graph.
type op func(g *Graph) error

func publish(g *Graph, c *Commit, err error) error {
	if err != nil {
		return err
	}
	return g.Publish(c)
}

// randomOps returns n operations valid in sequence from an empty graph:
// init, then branches from any commit, commits, merges and re-flags.
func randomOps(r *rand.Rand, n int) []op {
	ops := []op{func(g *Graph) error { _, c, err := g.Init("init"); return publish(g, c, err) }}
	commits, branches := 1, 1
	for len(ops) < n {
		switch k := r.Intn(10); {
		case k < 2:
			name, from := fmt.Sprintf("b%d", branches), CommitID(1+r.Intn(commits))
			ops = append(ops, func(g *Graph) error { _, err := g.NewBranch(name, from); return err })
			branches++
		case k < 7:
			b, msg, schemaVer := BranchID(r.Intn(branches)), fmt.Sprintf("c%d", commits), -1
			if r.Intn(4) == 0 {
				schemaVer = commits
			}
			ops = append(ops, func(g *Graph) error { c, err := g.NewCommitSchema(b, msg, schemaVer); return publish(g, c, err) })
			commits++
		case k < 9 && branches > 1:
			into := r.Intn(branches)
			other := (into + 1 + r.Intn(branches-1)) % branches
			first := r.Intn(2) == 0
			ops = append(ops, func(g *Graph) error {
				c, err := g.NewMergeCommit(BranchID(into), BranchID(other), "merge", first)
				return publish(g, c, err)
			})
			commits++
		default:
			b, active := BranchID(r.Intn(branches)), r.Intn(2) == 0
			ops = append(ops, func(g *Graph) error { return g.SetActive(b, active) })
		}
	}
	return ops
}

// copyGraph copies the graph's two files as they are on disk into a
// new directory, the log cut to walSize bytes when that is not negative.
func copyGraph(t testing.TB, from string, walSize int64) string {
	t.Helper()
	to := t.TempDir()
	copyGraphTo(t, from, to, walSize)
	return to
}

func copyGraphTo(t testing.TB, from, to string, walSize int64) {
	t.Helper()
	for _, name := range []string{snapshotName, logName} {
		data, err := os.ReadFile(filepath.Join(from, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if name == logName && walSize >= 0 {
			data = data[:walSize]
		}
		if err := os.WriteFile(filepath.Join(to, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func openDump(t testing.TB, dir string) string {
	t.Helper()
	return openAnd(t, dir, dump)
}

func openAnd(t testing.TB, dir string, render func(*Graph) string) string {
	t.Helper()
	g, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer g.log.Close() // not Close, which would checkpoint
	return render(g)
}

func fileSize(t testing.TB, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// A logged graph and a memory-only one agree after every operation,
// and so does a reopen of the files at every operation boundary — with
// the whole history in the log, and with checkpoints in between. A log
// torn anywhere inside its last record is the graph before that
// operation.
func TestLoggedGraphMatchesMemory(t *testing.T) {
	for _, checkpointEvery := range []int{0, 7} {
		t.Run(fmt.Sprintf("checkpointEvery=%d", checkpointEvery), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(41 + checkpointEvery)))
			dir := t.TempDir()
			logged, err := Open(dir, false)
			if err != nil {
				t.Fatal(err)
			}
			mem := New()
			walPath, torn := filepath.Join(dir, logName), t.TempDir()
			for i, o := range randomOps(r, 60) {
				before := dumpState(mem)
				walBefore := fileSize(t, walPath)
				if err := o(mem); err != nil {
					t.Fatalf("op %d on the memory graph: %v", i, err)
				}
				if err := o(logged); err != nil {
					t.Fatalf("op %d on the logged graph: %v", i, err)
				}
				want := dump(mem)
				if got := dump(logged); got != want {
					t.Fatalf("after op %d the logged graph is\n%s\nwant\n%s", i, got, want)
				}
				if got := openDump(t, copyGraph(t, dir, -1)); got != want {
					t.Fatalf("reopened after op %d:\n%s\nwant\n%s", i, got, want)
				}
				walAfter := fileSize(t, walPath)
				if walAfter <= walBefore {
					t.Fatalf("op %d appended nothing to the log (%d -> %d bytes)", i, walBefore, walAfter)
				}
				copyGraphTo(t, dir, torn, -1)
				wal, _ := os.ReadFile(walPath)
				step := int64(1)
				if testing.Short() {
					step = 5 // each cut rewrites and truncates a file
				}
				for cut := walBefore; cut < walAfter; cut += step {
					if err := os.WriteFile(filepath.Join(torn, logName), wal[:cut], 0o644); err != nil {
						t.Fatal(err)
					}
					if got := openAnd(t, torn, dumpState); got != before {
						t.Fatalf("log cut at byte %d of [%d,%d), inside op %d's record:\n%s\nwant the graph before it\n%s",
							cut, walBefore, walAfter, i, got, before)
					}
				}
				if checkpointEvery > 0 && i%checkpointEvery == checkpointEvery-1 {
					if err := logged.Close(); err != nil {
						t.Fatal(err)
					}
					if n := fileSize(t, walPath); n != 0 {
						t.Fatalf("log holds %d bytes after a checkpoint", n)
					}
					if logged, err = Open(dir, false); err != nil {
						t.Fatal(err)
					}
				}
			}
			// A reopen gives back the very commits, times included, and
			// numbers new ones past them.
			reopened, err := Open(copyGraph(t, dir, -1), false)
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			for _, b := range logged.Branches() {
				if !reflect.DeepEqual(reopened.CommitsOnBranch(b.ID), logged.CommitsOnBranch(b.ID)) {
					t.Fatalf("branch %d's commits differ after a reopen", b.ID)
				}
			}
			c, err := reopened.NewCommit(0, "post")
			if err != nil || int(c.ID) != logged.NumCommits()+1 {
				t.Fatalf("first commit after a reopen: %+v, %v", c, err)
			}
			logged.Close()
		})
	}
}

// A crash between a checkpoint's rename and its log truncation leaves
// the records the snapshot already holds; replaying them changes
// nothing, then or after more operations have been logged behind them.
func TestReplayOfSnapshottedRecords(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	g, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	ops := randomOps(r, 60)
	for _, o := range ops[:40] {
		if err := o(g); err != nil {
			t.Fatal(err)
		}
	}
	walPath := filepath.Join(dir, logName)
	stale, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	want := dump(g)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := openDump(t, dir); got != want {
		t.Fatalf("snapshot plus its own records:\n%s\nwant\n%s", got, want)
	}
	if g, err = Open(dir, false); err != nil {
		t.Fatal(err)
	}
	for _, o := range ops[40:] {
		if err := o(g); err != nil {
			t.Fatal(err)
		}
	}
	want = dump(g)
	if got := openDump(t, copyGraph(t, dir, -1)); got != want {
		t.Fatalf("new records behind stale ones:\n%s\nwant\n%s", got, want)
	}
	g.Close()
}

// The log never outgrows max(64 KiB, the snapshot under it), and the
// snapshot is rewritten a logarithmic number of times, not once a commit.
func TestCheckpointThreshold(t *testing.T) {
	dir := t.TempDir()
	g, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	_, c, err := g.Init("init")
	if err = publish(g, c, err); err != nil {
		t.Fatal(err)
	}
	snapPath, walPath := filepath.Join(dir, snapshotName), filepath.Join(dir, logName)
	var last os.FileInfo
	snapshots := 0
	for i := 0; i < 2000; i++ {
		c, err := g.NewCommit(0, fmt.Sprintf("commit number %d", i))
		if err = publish(g, c, err); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(snapPath)
		if err == nil && (last == nil || !os.SameFile(last, st)) {
			last = st
			snapshots++
		}
		limit := int64(minCheckpointLog)
		if last != nil && last.Size() > limit {
			limit = last.Size()
		}
		if n := fileSize(t, walPath); n > limit {
			t.Fatalf("after %d commits the log is %d bytes, over its limit of %d", i+1, n, limit)
		}
	}
	if snapshots < 1 || snapshots > 5 {
		t.Fatalf("%d snapshots written over 2000 commits, want a handful", snapshots)
	}
	if got := openDump(t, copyGraph(t, dir, -1)); got != dump(g) {
		t.Fatal("graph differs after a reopen across checkpoints")
	}
}

// A commit the engines failed to apply leaves no trace, in memory or in
// the log.
func TestAbort(t *testing.T) {
	dir := t.TempDir()
	g, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	_, c0, err := g.Init("init")
	if err != nil {
		t.Fatal(err)
	}
	g.Abort(c0)
	if g.Initialized() || len(g.Branches()) != 0 {
		t.Fatal("aborted init left a graph behind")
	}
	_, c0, err = g.Init("init")
	if err = publish(g, c0, err); err != nil {
		t.Fatal(err)
	}
	dev, err := g.NewBranch("dev", c0.ID)
	if err != nil {
		t.Fatal(err)
	}
	before := dump(g)
	c, err := g.NewMergeCommit(0, dev.ID, "merge", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.NewCommit(dev.ID, "second"); err == nil {
		t.Fatal("a second commit began while the first was pending")
	}
	g.Abort(c)
	if got := dump(g); got != before {
		t.Fatalf("after the abort:\n%s\nwant\n%s", got, before)
	}
	if err := g.Publish(c); err == nil {
		t.Fatal("published an aborted commit")
	}
	again, err := g.NewCommit(0, "retry")
	if err = publish(g, again, err); err != nil || again.ID != c.ID || again.Seq != c.Seq {
		t.Fatalf("commit after an abort: %+v, %v; want id %d seq %d", again, err, c.ID, c.Seq)
	}
	if got, want := openDump(t, copyGraph(t, dir, -1)), dump(g); got != want {
		t.Fatalf("reopened:\n%s\nwant\n%s", got, want)
	}
}

// graphLogFixture is a history of which the first part is in the
// snapshot and the rest in the log, with the dump of every state the
// log's records lead through.
type graphLogFixture struct {
	snapshot, log []byte
	prefixes      map[string]bool
}

func newGraphLogFixture(t testing.TB) graphLogFixture {
	dir := t.TempDir()
	g, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	ops := randomOps(rand.New(rand.NewSource(3)), 40)
	fx := graphLogFixture{prefixes: make(map[string]bool)}
	for i, o := range ops {
		if err := o(g); err != nil {
			t.Fatal(err)
		}
		if i == 19 {
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}
			if g, err = Open(dir, false); err != nil {
				t.Fatal(err)
			}
		}
		if i >= 19 {
			fx.prefixes[dump(g)] = true
		}
	}
	fx.snapshot, _ = os.ReadFile(filepath.Join(dir, snapshotName))
	fx.log, _ = os.ReadFile(filepath.Join(dir, logName))
	g.log.Close()
	if len(fx.snapshot) == 0 || len(fx.log) == 0 {
		t.Fatal("fixture has an empty snapshot or log")
	}
	return fx
}

// Whatever is appended to, or flipped in, a valid log beside a valid
// snapshot, Open neither fails nor panics and yields the graph at some
// point of the history — never less than the snapshot, never a graph
// the history did not pass through.
func FuzzGraphLogReplay(f *testing.F) {
	fx := newGraphLogFixture(f)
	// Seeds: garbage; the log's own records again (already applied); and
	// a well-formed record that does not extend the graph.
	f.Add([]byte{1, 2, 3}, uint32(0), byte(0))
	f.Add(fx.log, uint32(0), byte(0))
	f.Add([]byte(nil), uint32(len(fx.log)/2), byte(0x40))
	misfit := filepath.Join(f.TempDir(), "misfit")
	if l, err := wal.Open(misfit); err == nil {
		l.Append(wal.KindGraphCommit, []byte(`{"id":9999,"parents":[1],"branch":0,"seq":77}`))
		l.Append(wal.KindGraphBranch, []byte(`{"id":9999,"name":"x","from":1}`))
		l.Close()
		rec, _ := os.ReadFile(misfit)
		f.Add(rec, uint32(0), byte(0))
	}
	f.Fuzz(func(t *testing.T, tail []byte, flipAt uint32, flip byte) {
		log := append([]byte(nil), fx.log...)
		log[int(flipAt)%len(log)] ^= flip
		log = append(log, tail...)
		dir := t.TempDir()
		os.WriteFile(filepath.Join(dir, snapshotName), fx.snapshot, 0o644)
		os.WriteFile(filepath.Join(dir, logName), log, 0o644)
		if got := openDump(t, dir); !fx.prefixes[got] {
			t.Fatalf("open yielded a graph outside the history:\n%s", got)
		}
		// What the first open cut off stays cut off.
		if first, second := openDump(t, dir), openDump(t, dir); first != second {
			t.Fatal("a second open yields a different graph")
		}
	})
}

// Readers take no lock of their own: they run against commits being
// installed, aborted, logged and checkpointed. Meaningful under -race.
func TestReadersDuringLoggedCommits(t *testing.T) {
	g, err := Open(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	_, c0, err := g.Init("init")
	if err = publish(g, c0, err); err != nil {
		t.Fatal(err)
	}
	dev, err := g.NewBranch("dev", c0.ID)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, b := range g.Branches() {
					on := g.CommitsOnBranch(b.ID)
					// (The commit may have been aborted since; if it is there, it is the right one.)
					if at, ok := g.CommitAt(b.ID, len(on)-1); ok && at.Seq != len(on)-1 {
						t.Errorf("branch %d: commit %d of %d is %+v", b.ID, len(on)-1, len(on), at)
						return
					}
					head, _ := g.Head(b.ID)
					g.LCA(head, c0.ID)
				}
			}
		}()
	}
	// Long messages, so that the log crosses its threshold and
	// checkpoints under the readers a few times.
	msg := strings.Repeat("m", 400)
	for i := 0; i < 600; i++ {
		c, err := g.NewCommit(BranchID(i%2), msg)
		if err != nil {
			t.Fatal(err)
		}
		if i%7 == 3 {
			g.Abort(c)
			continue
		}
		if err := g.Publish(c); err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 {
			if _, err := g.NewMergeCommit(0, dev.ID, "merge", true); err != nil {
				t.Fatal(err)
			}
			g.Abort(g.pending)
		}
	}
	close(done)
	readers.Wait()
}
