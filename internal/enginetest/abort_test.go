package enginetest

import (
	"context"
	"errors"
	"testing"

	"decibel/internal/core"
	"decibel/internal/record"
	"decibel/internal/vgraph"
)

// An aborted transaction is undone by the engine that stored it
// (Engine.Rollback). These tests abort a writing transaction in the
// states where the head's storage is least like a plain append — a
// branch with no commit of its own, a merge commit, a queued schema
// change, a head rotated by a schema change, a commit applied by one
// relation only — and check that the head equals its last commit right
// away, after a reopen and after the next commit.

var errAbort = errors.New("abort")

func sameState(a, b map[int64]string) bool {
	if len(a) != len(b) {
		return false
	}
	for pk, s := range a {
		if b[pk] != s {
			return false
		}
	}
	return true
}

// abortCase is one dataset of twoTables under test: its directory and
// how it reopens.
type abortCase struct {
	t    *testing.T
	dir  string
	open func() *core.Database
	db   *core.Database
}

// state renders one relation's branch head (c nil) or commit c: each
// live key's record.
func (ac *abortCase) state(table string, b vgraph.BranchID, c *vgraph.Commit) map[int64]string {
	ac.t.Helper()
	tbl, _ := ac.db.Table(table)
	out := make(map[int64]string)
	fn := func(rec *record.Record) bool { out[rec.PK()] = rec.String(); return true }
	var err error
	if c == nil {
		err = scanHead(tbl, b, fn)
	} else {
		err = scanCommit(tbl, c, fn)
	}
	if err != nil {
		ac.t.Fatal(err)
	}
	return out
}

// headIs fails unless both relations' heads of the named branch equal
// their state at commit c.
func (ac *abortCase) headIs(phase, branch string, c *vgraph.Commit) {
	t := ac.t
	t.Helper()
	b, err := ac.db.BranchNamed(branch)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"t", "u"} {
		if head, want := ac.state(name, b.ID, nil), ac.state(name, b.ID, c); !sameState(head, want) {
			t.Fatalf("%s: %s's head of %s is %v, want its commit %d: %v", phase, name, branch, head, c.ID, want)
		}
	}
}

// check is what every abort must leave: the branch head equal to its
// last commit right away and in the next commit, a write committed
// after those seen as written, and all of it as it was after a reopen.
// The reopen comes last, so that nothing it rebuilds covers for the
// rollback: every commit log the branch has takes an entry at every
// later commit, which a log the rollback dropped would fail.
func (ac *abortCase) check(branch string) {
	t := ac.t
	t.Helper()
	b, err := ac.db.BranchNamed(branch)
	if err != nil {
		t.Fatal(err)
	}
	last, _ := ac.db.Graph().Commit(b.Head)
	ac.headIs("after the abort", branch, last)
	next, err := ac.db.Commit(b.ID, "after the abort")
	if err != nil {
		t.Fatal(err)
	}
	ac.headIs("after the next commit", branch, next)
	put(t, ac.db, b.ID, 60, 60)
	then, err := ac.db.Commit(b.ID, "a write after the abort")
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"before a reopen", "after a reopen"} {
		if phase == "after a reopen" {
			if err := ac.db.Close(); err != nil {
				t.Fatal(err)
			}
			ac.db = ac.open()
		}
		ac.headIs(phase, branch, then)
		for _, name := range []string{"t", "u"} {
			want := ac.state(name, b.ID, last)
			if got := ac.state(name, b.ID, next); !sameState(got, want) {
				t.Fatalf("%s: %s's next commit on %s holds %v, want the last one's %v", phase, name, branch, got, want)
			}
			if got := ac.state(name, b.ID, then); len(got) != len(want)+1 || got[60] == "" {
				t.Fatalf("%s: %s's commit of key 60 on %s holds %v", phase, name, branch, got)
			}
		}
	}
}

// writeBoth updates keys 1 and 2, inserts key 50 and deletes key 5 in
// both relations.
func writeBoth(tx *core.Tx) error {
	for _, name := range []string{"t", "u"} {
		for _, pk := range []int64{1, 2, 50} {
			if err := tx.Insert(name, simpleRec(testSchema(), pk, 7000+pk)); err != nil {
				return err
			}
		}
		if err := tx.Delete(name, 5); err != nil {
			return err
		}
	}
	return nil
}

// abort runs a transaction on branch that makes writeBoth's writes,
// after first's, and then fails.
func (ac *abortCase) abort(branch string, first func(*core.Tx) error) {
	ac.t.Helper()
	_, err := ac.db.Transact(context.Background(), branch, func(tx *core.Tx) error {
		if first != nil {
			if err := first(tx); err != nil {
				return err
			}
		}
		if err := writeBoth(tx); err != nil {
			return err
		}
		return errAbort
	})
	if !errors.Is(err, errAbort) {
		ac.t.Fatalf("aborted transaction on %s: %v", branch, err)
	}
}

func TestAbortRestoresLastCommit(t *testing.T) {
	addD := func(tx *core.Tx) error {
		return tx.AddColumn("t", record.Column{Name: "d", Type: record.Int64}, core.Default(9))
	}
	states := []struct {
		name string
		run  func(ac *abortCase, f *faults)
	}{
		{"fresh branch", func(ac *abortCase, _ *faults) {
			if _, err := ac.db.BranchFromHead(context.Background(), "fresh", "master"); err != nil {
				ac.t.Fatal(err)
			}
			ac.abort("fresh", nil)
			ac.check("fresh")
		}},
		{"after a merge", func(ac *abortCase, _ *faults) {
			if _, _, err := ac.db.MergeContext(context.Background(), "master", "dev", "merge", core.ThreeWay, true); err != nil {
				ac.t.Fatal(err)
			}
			ac.abort("master", nil)
			ac.check("master")
		}},
		{"queued AddColumn", func(ac *abortCase, _ *faults) {
			ac.abort("master", addD)
			tbl, _ := ac.db.Table("t")
			if n := tbl.Schema().NumColumns(); n != testSchema().NumColumns() {
				ac.t.Fatalf("the aborted AddColumn left %d columns", n)
			}
			ac.check("master")
		}},
		{"first write after an alter", func(ac *abortCase, _ *faults) {
			if _, err := ac.db.Transact(context.Background(), "master", addD); err != nil {
				ac.t.Fatal(err)
			}
			ac.abort("master", nil)
			ac.check("master")
		}},
		{"commit failed on the second relation", func(ac *abortCase, f *faults) {
			_, err := ac.db.Transact(context.Background(), "master", func(tx *core.Tx) error {
				f.failCommit = errAbort
				return writeBoth(tx)
			})
			if !errors.Is(err, errAbort) {
				ac.t.Fatalf("transaction over a failing commit: %v", err)
			}
			ac.check("master")
		}},
	}
	for _, tc := range engineCases() {
		for _, st := range states {
			t.Run(tc.name+"/"+st.name, func(t *testing.T) {
				f := &faults{}
				factory := faultyFactory(tc.factory, f)
				ac := &abortCase{t: t, dir: t.TempDir()}
				ac.open = func() *core.Database { return openDB(t, ac.dir, factory, tc.opt) }
				ac.db, _, _ = twoTables(t, ac.dir, factory, tc.opt)
				defer func() { ac.db.Close() }()
				st.run(ac, f)
			})
		}
	}
}

// TestAbortWritesNothingOnBitmapEngines: tuple-first and hybrid undo an
// aborted transaction by restoring the branch's bitmaps, so the
// aborted copies stay as dead slots and no copy is written back.
func TestAbortWritesNothingOnBitmapEngines(t *testing.T) {
	for _, tc := range engineCases() {
		if tc.name == "version-first" {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			db := openDB(t, t.TempDir(), tc.factory, tc.opt)
			defer db.Close()
			if _, err := db.CreateTable("t", testSchema()); err != nil {
				t.Fatal(err)
			}
			master, _, err := db.Init("init")
			if err != nil {
				t.Fatal(err)
			}
			tbl, _ := db.Table("t")
			for pk := int64(1); pk <= 50; pk++ {
				if err := tbl.Insert(master.ID, simpleRec(testSchema(), pk, pk)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := db.Commit(master.ID, "fifty"); err != nil {
				t.Fatal(err)
			}
			var written int64
			_, err = db.Transact(context.Background(), "master", func(tx *core.Tx) error {
				for pk := int64(1); pk <= 50; pk++ {
					if err := tx.Insert("t", simpleRec(testSchema(), pk, -pk)); err != nil {
						return err
					}
				}
				st, err := tbl.Engine().Stats()
				if err != nil {
					return err
				}
				written = st.Records
				return errAbort
			})
			if !errors.Is(err, errAbort) {
				t.Fatalf("aborted transaction: %v", err)
			}
			st, err := tbl.Engine().Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Records != written {
				t.Fatalf("the abort left %d record slots, %d right after its writes", st.Records, written)
			}
			if got := scanPKs(t, db, master.ID); len(got) != 50 || got[7] != 7 {
				t.Fatalf("head after the abort: %v, want the fifty committed rows", got)
			}
		})
	}
}
