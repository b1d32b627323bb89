package enginetest

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"decibel/internal/core"
	"decibel/internal/record"
	"decibel/internal/vgraph"
)

// The version graph's log record is the commit point and is written
// after every relation's engine has applied the commit. These tests
// make an engine fail, or a context expire, between the relations of a
// two-table dataset and check that the commit either happened on both
// or on neither — in this process and after a reopen.

// faults is what a faulty engine consults; the test sets the fields
// between operations.
type faults struct {
	failCommit error  // returned (once) by the next Commit on table "u"
	failMerge  error  // returned (once) by the next Merge on table "u"
	inMerge    func() // called from inside the first table's Merge
}

// faulty wraps the engine of one table. Table "t" is created first, so
// a failure on "u" strikes after "t" has already applied the commit.
type faulty struct {
	core.Engine
	table string
	f     *faults
}

func (e *faulty) Commit(c *vgraph.Commit) error {
	if err := e.f.failCommit; e.table == "u" && err != nil {
		e.f.failCommit = nil
		return err
	}
	return e.Engine.Commit(c)
}

func (e *faulty) Merge(m *core.Merge) error {
	if e.table == "t" && e.f.inMerge != nil {
		e.f.inMerge()
	}
	if err := e.f.failMerge; e.table == "u" && err != nil {
		e.f.failMerge = nil
		return err
	}
	return e.Engine.Merge(m)
}

func faultyFactory(inner core.Factory, f *faults) core.Factory {
	return func(env *core.Env) (core.Engine, error) {
		eng, err := inner(env)
		if err != nil {
			return nil, err
		}
		return &faulty{Engine: eng, table: filepath.Base(env.Dir), f: f}, nil
	}
}

// twoTables opens a dataset with relations "t" and "u", ten rows each
// committed on master, and a branch dev that changed one row of each.
func twoTables(t *testing.T, dir string, factory core.Factory, opt core.Options) (db *core.Database, master, dev *vgraph.Branch) {
	t.Helper()
	db = openDB(t, dir, factory, opt)
	for _, name := range []string{"t", "u"} {
		if _, err := db.CreateTable(name, testSchema()); err != nil {
			t.Fatal(err)
		}
	}
	master, _, err := db.Init("init")
	if err != nil {
		t.Fatal(err)
	}
	for pk := int64(1); pk <= 10; pk++ {
		put(t, db, master.ID, pk, pk*10)
	}
	if _, err := db.Commit(master.ID, "ten rows"); err != nil {
		t.Fatal(err)
	}
	if dev, err = db.BranchFromHead(context.Background(), "dev", "master"); err != nil {
		t.Fatal(err)
	}
	put(t, db, dev.ID, 3, 333)
	if _, err := db.Commit(dev.ID, "dev edit"); err != nil {
		t.Fatal(err)
	}
	return db, master, dev
}

// put upserts (pk, v) into both relations.
func put(t *testing.T, db *core.Database, b vgraph.BranchID, pk, v int64) {
	t.Helper()
	for _, name := range []string{"t", "u"} {
		tbl, _ := db.Table(name)
		if err := tbl.Insert(b, simpleRec(testSchema(), pk, v)); err != nil {
			t.Fatal(err)
		}
	}
}

// rows reads a branch head of one relation.
func rows(t *testing.T, db *core.Database, table string, b vgraph.BranchID) map[int64]int64 {
	t.Helper()
	tbl, _ := db.Table(table)
	out := make(map[int64]int64)
	if err := scanHead(tbl, b, func(rec *record.Record) bool {
		out[rec.PK()] = rec.Get(1)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// graphState is what a failed operation must leave as it found it.
type graphState struct {
	head    vgraph.CommitID
	commits int
	onMain  int // the next commit's Seq
}

func stateOf(db *core.Database, b vgraph.BranchID) graphState {
	head, _ := db.Graph().Head(b)
	return graphState{head, db.Graph().NumCommits(), db.Graph().NumCommitsOn(b)}
}

func TestFailedCommitLeavesNoCommit(t *testing.T) {
	for _, tc := range engineCases() {
		t.Run(tc.name, func(t *testing.T) {
			dir, f := t.TempDir(), &faults{}
			db, master, _ := twoTables(t, dir, faultyFactory(tc.factory, f), tc.opt)
			before := stateOf(db, master.ID)

			put(t, db, master.ID, 11, 110)
			f.failCommit = errors.New("disk full")
			if _, err := db.Commit(master.ID, "eleventh"); err == nil {
				t.Fatal("commit succeeded over a failing engine")
			}
			if got := stateOf(db, master.ID); got != before {
				t.Fatalf("graph after the failed commit: %+v, before it: %+v", got, before)
			}
			// The same commit again: relation t had applied the first try,
			// and must not count it.
			c, err := db.Commit(master.ID, "eleventh, again")
			if err != nil {
				t.Fatalf("retry: %v", err)
			}
			if c.Seq != before.onMain || len(c.Parents) != 1 || c.Parents[0] != before.head {
				t.Fatalf("retried commit %+v does not follow %+v", c, before)
			}
			// And once more with the failure as the last thing before a
			// reopen, where the engines' files are a commit ahead.
			put(t, db, master.ID, 12, 120)
			f.failCommit = errors.New("disk full")
			if _, err := db.Commit(master.ID, "twelfth"); err == nil {
				t.Fatal("commit succeeded over a failing engine")
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db = openDB(t, dir, tc.factory, tc.opt)
			defer db.Close()
			for _, table := range []string{"t", "u"} {
				got := rows(t, db, table, master.ID)
				if len(got) != 11 || got[11] != 110 {
					t.Fatalf("%s after the reopen: %v, want the eleven committed rows", table, got)
				}
			}
			put(t, db, master.ID, 12, 121)
			c2, err := db.Commit(master.ID, "twelfth")
			if err != nil {
				t.Fatalf("commit after the reopen: %v", err)
			}
			if c2.Seq != c.Seq+1 || c2.Parents[0] != c.ID {
				t.Fatalf("commit after the reopen %+v does not follow %+v", c2, c)
			}
			if _, err := db.BranchFromHead(context.Background(), "fromhead", "master"); err != nil {
				t.Fatalf("branch from the head: %v", err)
			}
			for _, table := range []string{"t", "u"} {
				tbl, _ := db.Table(table)
				n := 0
				if err := scanCommit(tbl, c, func(*record.Record) bool { n++; return true }); err != nil || n != 11 {
					t.Fatalf("%s at the retried commit: %d rows (%v)", table, n, err)
				}
			}
		})
	}
}

func TestMergeIsAllOrNothing(t *testing.T) {
	for _, tc := range engineCases() {
		t.Run(tc.name, func(t *testing.T) {
			dir, f := t.TempDir(), &faults{}
			db, master, dev := twoTables(t, dir, faultyFactory(tc.factory, f), tc.opt)
			before := stateOf(db, master.ID)

			// A context that is already done stops the merge before it starts.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, _, err := db.MergeContext(ctx, master.Name, dev.Name, "merge", core.ThreeWay, true); !errors.Is(err, context.Canceled) {
				t.Fatalf("merge under a cancelled context: %v", err)
			}
			// An engine failing on the second relation takes the merge
			// commit back out of the graph.
			f.failMerge = errors.New("disk full")
			if _, _, err := db.MergeContext(context.Background(), master.Name, dev.Name, "merge", core.ThreeWay, true); err == nil {
				t.Fatal("merge succeeded over a failing engine")
			}
			if got := stateOf(db, master.ID); got != before {
				t.Fatalf("graph after the failed merges: %+v, before them: %+v", got, before)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db = openDB(t, dir, faultyFactory(tc.factory, f), tc.opt)
			defer db.Close()
			for _, table := range []string{"t", "u"} {
				if got := rows(t, db, table, master.ID); len(got) != 10 || got[3] != 30 {
					t.Fatalf("%s after the reopen: %v, want master as committed", table, got)
				}
			}

			// A context that expires once the first relation is being
			// merged does not stop the second: the merge completes.
			ctx, cancel = context.WithCancel(context.Background())
			defer cancel()
			f.inMerge = cancel
			mc, _, err := db.MergeContext(ctx, master.Name, dev.Name, "merge", core.ThreeWay, true)
			if err != nil {
				t.Fatalf("merge cancelled from inside the first relation: %v", err)
			}
			if ctx.Err() == nil {
				t.Fatal("the first relation's merge did not cancel the context")
			}
			if head, _ := db.Graph().Head(master.ID); head != mc.ID || mc.Seq != before.onMain {
				t.Fatalf("merge commit %+v is not master's head %d", mc, head)
			}
			for _, table := range []string{"t", "u"} {
				if got := rows(t, db, table, master.ID); len(got) != 10 || got[3] != 333 {
					t.Fatalf("%s after the merge: %v, want dev's edit", table, got)
				}
			}
			put(t, db, master.ID, 11, 110)
			if c, err := db.Commit(master.ID, "after the merge"); err != nil || c.Seq != mc.Seq+1 {
				t.Fatalf("commit after the merge: %+v, %v", c, err)
			}
		})
	}
}
