package vgraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func initGraph(t *testing.T) (*Graph, *Branch, *Commit) {
	t.Helper()
	g := New()
	b, c, err := g.Init("init")
	if err != nil {
		t.Fatal(err)
	}
	return g, b, c
}

func TestInit(t *testing.T) {
	g, master, c0 := initGraph(t)
	if master.Name != MasterName || !master.Active {
		t.Fatalf("master = %+v", master)
	}
	if c0.Depth != 0 || len(c0.Parents) != 0 {
		t.Fatalf("init commit = %+v", c0)
	}
	if master.Head != c0.ID {
		t.Fatal("master head wrong")
	}
	if _, _, err := g.Init("again"); err == nil {
		t.Fatal("double init accepted")
	}
	if !g.Initialized() {
		t.Fatal("Initialized false after init")
	}
}

func TestCommitAdvancesHead(t *testing.T) {
	g, master, c0 := initGraph(t)
	c1, err := g.NewCommit(master.ID, "one")
	if err != nil {
		t.Fatal(err)
	}
	if c1.Parents[0] != c0.ID || c1.Depth != 1 || c1.Seq != 1 {
		t.Fatalf("c1 = %+v", c1)
	}
	b, _ := g.Branch(master.ID)
	if b.Head != c1.ID {
		t.Fatal("head not advanced")
	}
}

func TestBranchFromAnyCommit(t *testing.T) {
	g, master, c0 := initGraph(t)
	c1, _ := g.NewCommit(master.ID, "one")
	g.NewCommit(master.ID, "two")
	// Branch from a historical (non-head) commit.
	dev, err := g.NewBranch("dev", c1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if dev.Head != c1.ID || dev.From != c1.ID || dev.Parent != master.ID {
		t.Fatalf("dev = %+v", dev)
	}
	if _, err := g.NewBranch("dev", c0.ID); err == nil {
		t.Fatal("duplicate branch name accepted")
	}
	if _, err := g.NewBranch("x", 999); err == nil {
		t.Fatal("branch from missing commit accepted")
	}
	// A commit on dev does not move master.
	cd, _ := g.NewCommit(dev.ID, "dev work")
	if cd.Seq != 0 {
		t.Fatalf("first commit on dev has seq %d", cd.Seq)
	}
	m, _ := g.Branch(master.ID)
	if m.Head == cd.ID {
		t.Fatal("commit on dev moved master head")
	}
}

func TestMergeCommit(t *testing.T) {
	g, master, c0 := initGraph(t)
	dev, _ := g.NewBranch("dev", c0.ID)
	cm, _ := g.NewCommit(master.ID, "m")
	cd, _ := g.NewCommit(dev.ID, "d")
	mc, err := g.NewMergeCommit(master.ID, dev.ID, "merge dev", true)
	if err != nil {
		t.Fatal(err)
	}
	if !mc.IsMerge() || mc.Parents[0] != cm.ID || mc.Parents[1] != cd.ID {
		t.Fatalf("merge commit = %+v", mc)
	}
	if !mc.PrecedenceFirst {
		t.Fatal("precedence lost")
	}
	m, _ := g.Branch(master.ID)
	if m.Head != mc.ID {
		t.Fatal("merge did not advance master head")
	}
	if _, err := g.NewMergeCommit(master.ID, master.ID, "self", true); err == nil {
		t.Fatal("self merge accepted")
	}
}

func TestLCALinear(t *testing.T) {
	g, master, c0 := initGraph(t)
	c1, _ := g.NewCommit(master.ID, "1")
	c2, _ := g.NewCommit(master.ID, "2")
	if got := g.LCA(c1.ID, c2.ID); got != c1.ID {
		t.Fatalf("LCA linear = %d, want %d", got, c1.ID)
	}
	if got := g.LCA(c0.ID, c2.ID); got != c0.ID {
		t.Fatalf("LCA with root = %d", got)
	}
	if got := g.LCA(c2.ID, c2.ID); got != c2.ID {
		t.Fatalf("LCA self = %d", got)
	}
}

func TestLCAFork(t *testing.T) {
	g, master, _ := initGraph(t)
	c1, _ := g.NewCommit(master.ID, "1")
	dev, _ := g.NewBranch("dev", c1.ID)
	cm, _ := g.NewCommit(master.ID, "m")
	cd, _ := g.NewCommit(dev.ID, "d")
	if got := g.LCA(cm.ID, cd.ID); got != c1.ID {
		t.Fatalf("LCA fork = %d, want %d", got, c1.ID)
	}
}

func TestLCAAfterMerge(t *testing.T) {
	// Criss-cross-free: after merging dev into master, LCA(master head,
	// dev head) is dev's head itself (it is an ancestor of the merge).
	g, master, c0 := initGraph(t)
	dev, _ := g.NewBranch("dev", c0.ID)
	g.NewCommit(master.ID, "m")
	cd, _ := g.NewCommit(dev.ID, "d")
	g.NewMergeCommit(master.ID, dev.ID, "merge", true)
	m, _ := g.Branch(master.ID)
	if got := g.LCA(m.Head, cd.ID); got != cd.ID {
		t.Fatalf("LCA after merge = %d, want %d", got, cd.ID)
	}
}

func TestHeadsAndActive(t *testing.T) {
	g, master, c0 := initGraph(t)
	dev, _ := g.NewBranch("dev", c0.ID)
	heads := g.Heads()
	if len(heads) != 2 {
		t.Fatalf("heads = %v", heads)
	}
	if err := g.SetActive(dev.ID, false); err != nil {
		t.Fatal(err)
	}
	d, _ := g.Branch(dev.ID)
	if d.Active {
		t.Fatal("branch still active")
	}
	if err := g.SetActive(99, false); err == nil {
		t.Fatal("missing branch accepted")
	}
	_ = master
}

// Property: for random graphs, the LCA is a common ancestor of both
// inputs and no deeper common ancestor exists.
func TestQuickLCAIsDeepestCommonAncestor(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := New()
		master, _, _ := g.Init("init")
		branches := []BranchID{master.ID}
		for op := 0; op < 40; op++ {
			switch r.Intn(3) {
			case 0:
				g.NewCommit(branches[r.Intn(len(branches))], "c")
			case 1:
				b, _ := g.Branch(branches[r.Intn(len(branches))])
				nb, err := g.NewBranch(string(rune('a'+len(branches)))+"x", b.Head)
				if err == nil {
					branches = append(branches, nb.ID)
				}
			case 2:
				if len(branches) >= 2 {
					i, j := r.Intn(len(branches)), r.Intn(len(branches))
					if i != j {
						g.NewMergeCommit(branches[i], branches[j], "m", r.Intn(2) == 0)
					}
				}
			}
		}
		bs := g.Branches()
		a := bs[r.Intn(len(bs))].Head
		b := bs[r.Intn(len(bs))].Head
		lca := g.LCA(a, b)
		if lca == None {
			return false // every pair shares the init commit
		}
		g.mu.RLock()
		aa, ba := g.ancestorsLocked(a), g.ancestorsLocked(b)
		g.mu.RUnlock()
		if !aa[lca] || !ba[lca] {
			return false
		}
		lc, _ := g.Commit(lca)
		for id := range ba {
			if aa[id] {
				c, _ := g.Commit(id)
				if c.Depth > lc.Depth {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
