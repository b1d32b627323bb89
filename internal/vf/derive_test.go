package vf

import (
	"fmt"
	"math/rand"
	"testing"

	"decibel/internal/bitmap"
	"decibel/internal/core"
	"decibel/internal/record"
	"decibel/internal/vgraph"
)

// deriveHistory drives one version-first database through a seeded
// random history and checks the plan cache after every operation.
type deriveHistory struct {
	t        *testing.T
	rng      *rand.Rand
	dir      string
	db       *core.Database
	tbl      *core.Table
	schema   *record.Schema
	branches []*vgraph.Branch
	commits  []*vgraph.Commit
	derived  [baseKinds]int // summed over the engines reopens replaced
	val      int64
}

func (h *deriveHistory) open() {
	db, err := core.Open(h.dir, "", only, core.Options{PageSize: 4096, PoolPages: 16})
	if err != nil {
		h.t.Fatal(err)
	}
	h.db = db
	h.tbl, _ = db.Table("t")
}

func (h *deriveHistory) engine() *Engine { return h.tbl.Engine().(*Engine) }

func (h *deriveHistory) branch() *vgraph.Branch { return h.branches[h.rng.Intn(len(h.branches))] }

func (h *deriveHistory) commit(b *vgraph.Branch) {
	c, err := h.db.Commit(b.ID, "c")
	if err != nil {
		h.t.Fatal(err)
	}
	h.commits = append(h.commits, c)
}

// step runs one random operation and names it.
func (h *deriveHistory) step(i int) string {
	switch r := h.rng.Intn(100); {
	case r < 35:
		b, pk := h.branch(), h.rng.Int63n(12)
		h.val++
		rec := record.New(h.schema)
		rec.SetPK(pk)
		rec.Set(1, h.val)
		if err := h.tbl.Insert(b.ID, rec); err != nil {
			h.t.Fatal(err)
		}
		return fmt.Sprintf("put %d on %s", pk, b.Name)
	case r < 45:
		b, pk := h.branch(), h.rng.Int63n(12)
		if err := h.tbl.Delete(b.ID, pk); err != nil {
			h.t.Fatal(err)
		}
		return fmt.Sprintf("delete %d on %s", pk, b.Name)
	case r < 60:
		b := h.branch()
		h.commit(b)
		return "commit " + b.Name
	case r < 67:
		// From a head half the time, else from any commit; branches of
		// branches come of picking a branch's commit.
		from := h.commits[h.rng.Intn(len(h.commits))]
		if h.rng.Intn(2) == 0 {
			b := h.branch()
			head, _ := h.db.Graph().Head(b.ID)
			from, _ = h.db.Graph().Commit(head)
		}
		nb, err := h.db.Branch(fmt.Sprintf("b%d", i), from.ID)
		if err != nil {
			h.t.Fatal(err)
		}
		h.branches = append(h.branches, nb)
		return fmt.Sprintf("branch %s from commit %d", nb.Name, from.ID)
	case r < 77:
		into, other := h.branch(), h.branch()
		if into == other {
			return "no merge"
		}
		kind, intoWins := core.MergeKind(h.rng.Intn(2)), h.rng.Intn(2) == 0
		mc, _, err := h.db.MergeContext(h.t.Context(), into.Name, other.Name, "m", kind, intoWins)
		if err != nil {
			h.t.Fatal(err)
		}
		h.commits = append(h.commits, mc)
		return fmt.Sprintf("merge %s into %s (kind %d, into wins %v)", other.Name, into.Name, kind, intoWins)
	case r < 79:
		if _, err := h.db.Compact(); err != nil {
			h.t.Fatal(err)
		}
		return "compact"
	case r < 81:
		h.derived = addDerived(h.derived, h.engine().derived)
		if err := h.db.Close(); err != nil {
			h.t.Fatal(err)
		}
		h.open()
		for j, b := range h.branches {
			h.branches[j], _ = h.db.BranchNamed(b.Name)
		}
		return "reopen"
	default:
		// Read a few versions, as a scan or a merge would: branch heads
		// and commits.
		var vs []core.Version
		for range 1 + h.rng.Intn(3) {
			if h.rng.Intn(2) == 0 {
				vs = append(vs, core.Version{Branch: h.branch().ID})
			} else {
				vs = append(vs, core.Version{Commit: h.commits[h.rng.Intn(len(h.commits))]})
			}
		}
		if err := h.engine().Live(vs, func([]core.SlotSpace) error { return nil }); err != nil {
			h.t.Fatal(err)
		}
		return fmt.Sprintf("read %d versions", len(vs))
	}
}

func addDerived(a, b [baseKinds]int) [baseKinds]int {
	for k := range a {
		a[k] += b[k]
	}
	return a
}

// checkPlans requires every cached plan, and the plan one pass over the
// version index builds at the same position, to equal, bit for bit,
// the plan a full lineage walk builds, and to hold no empty bitmap. The
// walk runs on fresh lineage memos, so a stale memo cannot agree with
// itself.
func checkPlans(t *testing.T, e *Engine, after string) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	lineMemo, stepMemo := e.lineMemo, e.stepMemo
	e.lineMemo, e.stepMemo = make(map[pos][]step), make(map[pos][]step)
	defer func() { e.lineMemo, e.stepMemo = lineMemo, stepMemo }()
	for p, el := range e.pcache.entries {
		got := el.Value.(*lruEntry[pos, *planEntry]).val
		want, err := e.resolveLiveFull(p)
		if err != nil {
			t.Fatalf("after %s: %v: %v", after, p, err)
		}
		indexed, err := e.indexPlanLocked(p)
		if err != nil {
			t.Fatalf("after %s: %v: %v", after, p, err)
		}
		for name, got := range map[string]*planEntry{"cached": got, "index-built": indexed} {
			for id := range e.cat.Segs {
				g, w := got.slots(segID(id)), want.slots(segID(id))
				if g != nil && !g.Any() {
					t.Fatalf("after %s: %s plan at %v holds an empty bitmap for segment %d", after, name, p, id)
				}
				if (g == nil) != (w == nil) || (g != nil && !g.Equal(w)) {
					t.Fatalf("after %s: %s plan at %v, segment %d: %v, full walk %v", after, name, p, id, slotsOf(g), slotsOf(w))
				}
			}
		}
	}
}

func slotsOf(bm *bitmap.Bitmap) []int {
	if bm == nil {
		return nil
	}
	return bm.Slots()
}

// TestDerivedPlansMatchFullWalk runs seeded random histories — commits
// and deletes, branches from heads and from commits, branches of
// branches, merges of both kinds and precedences, compaction and reopen
// — and after every operation compares every cached plan, and an
// index-built plan at the same position, with a full lineage walk. Each kind of base must have derived a plan, and the
// merges must have left overrides.
func TestDerivedPlansMatchFullWalk(t *testing.T) {
	const ops = 300
	var derived [baseKinds]int
	overrides := 0
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			h := &deriveHistory{t: t, rng: rand.New(rand.NewSource(seed)), dir: t.TempDir(), schema: record.MustSchema(
				record.Column{Name: "id", Type: record.Int64},
				record.Column{Name: "v", Type: record.Int64},
			)}
			h.open()
			var err error
			if h.tbl, err = h.db.CreateTable("t", h.schema); err != nil {
				t.Fatal(err)
			}
			master, c0, err := h.db.Init("init")
			if err != nil {
				t.Fatal(err)
			}
			h.branches, h.commits = []*vgraph.Branch{master}, []*vgraph.Commit{c0}
			defer func() { h.db.Close() }()
			for i := range ops {
				after := fmt.Sprintf("op %d (%s)", i, h.step(i))
				checkPlans(t, h.engine(), after)
			}
			e := h.engine()
			derived = addDerived(derived, addDerived(h.derived, e.derived))
			for _, s := range e.cat.Segs {
				overrides += len(s.overrides)
			}
		})
	}
	for k, n := range derived {
		if n == 0 {
			t.Errorf("no plan derived from base kind %d (derived %v)", k, derived)
		}
	}
	if overrides == 0 {
		t.Error("no merge left an override")
	}
}
