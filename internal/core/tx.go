package core

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"

	"decibel/internal/record"
	"decibel/internal/vgraph"
)

// This file is the one place a name-based write is made safe: which
// branch locks are taken in which order, how the head is re-read under
// the lock, when an aborted transaction is handed to the engines to
// undo (Engine.Rollback), and when the locks are released — strict
// two-phase locking (Section 2.2.3:
// "concurrent commits to a branch are prevented via the use of
// two-phase locking"). The ID-based primitives (Commit, Branch) take no
// branch lock; a transaction guards against them by checking, on every
// write and at commit, that the head is still the one it read
// (ErrNotAtHead).
//
// Every lock is exclusive, one per branch, and every locking call takes
// all of its locks at once, in branch-ID order, and releases them when
// it returns. No two calls can therefore wait on each other in a cycle,
// so a wait is bounded only by the caller's context. A call cannot add
// a lock while it holds one: Transact marks its callback's context, and
// a locking call made with that context fails with ErrNestedTransaction.

// heldBranch is the context key under which Transact records the name
// of the branch its callback holds.
type heldBranch struct{}

// admit passes the admission gate every locking operation passes: a
// ctx that already holds a branch fails with ErrNestedTransaction, and
// once Close or a CloseContext drain has begun the operation is refused
// with ErrDatabaseClosed. An admitted operation is counted by
// ActiveSessions until its dropSession.
func (db *Database) admit(ctx context.Context) error {
	if held, ok := ctx.Value(heldBranch{}).(string); ok {
		return fmt.Errorf("%w: the context holds branch %q", ErrNestedTransaction, held)
	}
	if err := db.beginOp(); err != nil {
		return err
	}
	defer db.endOp()
	return db.addSession()
}

// lockBranches takes the locks of the named branches, each branch once
// and in branch-ID order, and returns the branches in the order named
// and the function that releases the locks. A branch's lock is a
// channel of capacity 1, held by the goroutine whose send filled it:
// blocked senders are granted it in arrival order. A canceled ctx
// aborts the wait with ctx.Err(), releasing the locks already taken.
func (db *Database) lockBranches(ctx context.Context, names ...string) ([]*vgraph.Branch, func(), error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	bs := make([]*vgraph.Branch, len(names))
	ids := make([]vgraph.BranchID, len(names))
	for i, name := range names {
		b, err := db.BranchNamed(name)
		if err != nil {
			return nil, nil, err
		}
		bs[i], ids[i] = b, b.ID
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	var held []chan struct{}
	unlock := func() {
		for _, l := range held {
			<-l
		}
	}
	for _, id := range ids {
		v, _ := db.branchLocks.LoadOrStore(id, make(chan struct{}, 1))
		l := v.(chan struct{})
		select {
		case l <- struct{}{}:
			held = append(held, l)
		case <-ctx.Done():
			unlock()
			return nil, nil, ctx.Err()
		}
	}
	return bs, unlock, nil
}

// Tx is one write transaction against a branch head, handed to the
// callback of Transact: "the commit (or the branch) that the operations
// the user issues will read or modify" (Section 2.2.3), always a head.
// It holds the branch's lock until the callback's commit (or abort)
// ends the transaction, and addresses tables by name.
//
// A Tx is only valid inside its callback; using it after the callback
// returns yields ErrSessionClosed. It is not safe for concurrent use.
type Tx struct {
	ctx     context.Context
	db      *Database
	branch  *vgraph.Branch
	head    vgraph.CommitID // the head read under the lock
	closed  bool
	message string
	// pending collects schema changes queued with AddColumn/DropColumn;
	// they take effect atomically at commit and are discarded on abort.
	pending []SchemaChange
}

// Transact runs fn as one transaction against the named branch's head
// and, if fn returns nil, commits the branch — carrying the schema
// changes fn queued, if any — making every write fn issued atomically
// visible as the returned commit. The branch's lock is taken once,
// before the head is read, and held for the span of the callback, so
// concurrent transactions on one branch serialize while transactions
// on different branches run in parallel.
//
// fn must not make another locking call (Transact, BranchFromHead,
// MergeContext): made with tx.Context() it fails at once with
// ErrNestedTransaction; made with an unrelated context on the held
// branch it waits, as a re-locked sync.Mutex does, until that context
// ends.
//
// If fn, or the commit, fails, nothing is committed and the error is
// returned: before Transact returns, every table's engine returns the
// branch head to its last commit (Engine.Rollback), so an aborted
// transaction leaves no residue on the head. That undoes every
// uncommitted write on the branch, not only fn's: one made through the
// ID-based Table.Insert or Delete before the transaction goes too.
// Should the rollback itself fail, its error is joined to the first;
// the head is then rolled back by recovery when the dataset is next
// opened. Cancellation of ctx aborts the lock wait,
// every Tx operation and the commit handoff with ctx.Err(); the commit
// itself, once handed to the engines, is not interruptible.
func (db *Database) Transact(ctx context.Context, branch string, fn func(*Tx) error) (*vgraph.Commit, error) {
	if err := db.admit(ctx); err != nil {
		return nil, err
	}
	defer db.dropSession()
	bs, unlock, err := db.lockBranches(ctx, branch)
	if err != nil {
		return nil, err
	}
	defer unlock()
	b := bs[0]
	head, _ := db.graph.Head(b.ID)
	ctx = context.WithValue(ctx, heldBranch{}, b.Name)
	tx := &Tx{ctx: ctx, db: db, branch: b, head: head, message: "commit on " + branch}
	err = fn(tx)
	tx.closed = true
	if err == nil {
		err = tx.committable()
	}
	if err == nil {
		var c *vgraph.Commit
		if c, err = db.commitSchema(b.ID, tx.message, tx.pending); err == nil {
			return c, nil
		}
	}
	if rbErr := tx.rollback(); rbErr != nil {
		return nil, errors.Join(err, fmt.Errorf("decibel: rolling back aborted commit: %w", rbErr))
	}
	return nil, err
}

// committable is the guard the commit and every write pass: the
// context is live and the branch head is still the one the transaction
// read under its lock — only a lock-free ID-based Commit can move it.
func (tx *Tx) committable() error {
	if err := tx.ctx.Err(); err != nil {
		return err
	}
	if head, _ := tx.db.graph.Head(tx.branch.ID); head != tx.head {
		return fmt.Errorf("%w: %q moved from commit %d to %d under the transaction", ErrNotAtHead, tx.branch.Name, tx.head, head)
	}
	return nil
}

// table resolves a table for an operation inside the callback; writes
// also pass committable.
func (tx *Tx) table(name string, write bool) (*Table, error) {
	if tx.closed {
		return nil, ErrSessionClosed
	}
	if write {
		if err := tx.committable(); err != nil {
			return nil, err
		}
	}
	return tx.db.TableByName(name)
}

// rollback returns the branch head of every table to the branch's last
// commit, each through the engine that stored the writes, under the
// close guard like every engine call. Every table is rolled back even
// if one fails; the errors are joined.
func (tx *Tx) rollback() error {
	headID, _ := tx.db.graph.Head(tx.branch.ID)
	head, ok := tx.db.graph.Commit(headID)
	if !ok {
		return fmt.Errorf("%w: commit %d", ErrNoSuchCommit, headID)
	}
	if err := tx.db.beginOp(); err != nil {
		return err
	}
	defer tx.db.endOp()
	var errs []error
	for _, t := range tx.db.Tables() {
		errs = append(errs, t.engine.Rollback(tx.branch.ID, head))
	}
	return errors.Join(errs...)
}

// Insert upserts a record into the transaction's branch head.
func (tx *Tx) Insert(table string, rec *record.Record) error {
	t, err := tx.table(table, true)
	if err != nil {
		return err
	}
	return t.Insert(tx.branch.ID, rec)
}

// InsertBatch upserts a batch of records into the transaction's branch
// head as one engine call, amortizing the per-record validation of
// Insert — the fast path for bulk loads. On error a prefix of the batch
// may have been applied; like every Tx write it is rolled back if the
// transaction aborts.
func (tx *Tx) InsertBatch(table string, recs []*record.Record) error {
	t, err := tx.table(table, true)
	if err != nil {
		return err
	}
	return t.InsertBatch(tx.branch.ID, recs)
}

// Delete removes a primary key from the transaction's branch head.
// Deleting an absent key is a no-op.
func (tx *Tx) Delete(table string, pk int64) error {
	t, err := tx.table(table, true)
	if err != nil {
		return err
	}
	return t.Delete(tx.branch.ID, pk)
}

// Rows iterates the transaction's view of a table: the branch head,
// including the transaction's own uncommitted writes. It needs no lock
// beyond the one the transaction holds. A yielded record may alias a
// buffer-pool frame: its bytes may be overwritten once the iteration
// step returns, so Clone a record to keep it. The trailing error
// accessor is valid once iteration finishes.
func (tx *Tx) Rows(table string) (iter.Seq[*record.Record], func() error) {
	var err error
	seq := func(yield func(*record.Record) bool) {
		var t *Table
		if t, err = tx.table(table, false); err == nil {
			err = t.scanAll(tx.ctx, tx.branch.ID, yield)
		}
	}
	return seq, func() error { return err }
}

// scanAll is the transaction's own read (Rows): every live record of
// the branch head, whole, under the head's schema epoch, through the
// scan driver. Every other read is a compiled query (internal/query),
// which decides its own epoch.
func (t *Table) scanAll(ctx context.Context, branch vgraph.BranchID, fn func(*record.Record) bool) error {
	spec, err := NewScanSpecAt(t.hist, t.BranchEpoch(branch), nil, nil)
	if err != nil {
		return err
	}
	req := ScanRequest{Kind: ScanKindBranch, Branch: branch}
	return t.ScanUnitsContext(ctx, req, spec, nil, func(rec *record.Record, _ UnitAux) bool { return fn(rec) })
}

// ColumnDefault carries the default value of a column added by
// Tx.AddColumn; build one with Default.
type ColumnDefault struct{ v any }

// Default declares the value existing records show for a column added
// after they were stored: integers for Int32/Int64 columns, floats
// (or integers) for Float64, strings or []byte for Bytes. Omitting the
// default yields the column type's zero value.
func Default(v any) ColumnDefault { return ColumnDefault{v: v} }

// AddColumn evolves the named table's schema: from the commit this
// transaction produces, the table has the new column, appended after
// every existing one. Records stored before the change are never
// rewritten — reads fill the declared default — and reads of earlier
// commits keep the schema as of then, so a query At a version
// predating the column fails with ErrColumnNotYetAdded. Only the branch
// this transaction commits to (and branches that later merge it) see
// the new column; other branches keep their shape until they do, which
// is how branched datasets diverge structurally.
//
// The change applies atomically at commit: inserts inside the same
// transaction still write the old shape, and the column becomes
// writable from the next transaction on the branch. An aborted
// transaction discards it.
//
// Schema evolution forms one linear chain of versions per dataset: a
// branch may only commit a schema change if its head has adopted every
// earlier change (made them itself, or merged the branch that did).
// Committing a change on a branch that diverged from the newest schema
// fails with ErrSchemaChange — merge the evolving branch first.
func (tx *Tx) AddColumn(table string, col record.Column, def ...ColumnDefault) error {
	t, err := tx.table(table, true)
	if err != nil {
		return err
	}
	var v any
	if len(def) > 0 {
		v = def[0].v
	}
	// Validate eagerly so the caller hears about bad changes at queue
	// time: name collisions (with the history and with other queued
	// changes) and ill-typed defaults.
	if _, _, exists := t.History().ColumnEpochs(col.Name); exists {
		return fmt.Errorf("%w: column %q already exists in table %q", ErrSchemaChange, col.Name, table)
	}
	for _, ch := range tx.pending {
		if ch.Table == table && ch.Add != nil && ch.Add.Name == col.Name {
			return fmt.Errorf("%w: column %q already queued for table %q", ErrSchemaChange, col.Name, table)
		}
	}
	if _, err := record.EncodeDefault(col, v); err != nil {
		return fmt.Errorf("%w: %v", ErrSchemaChange, err)
	}
	tx.pending = append(tx.pending, SchemaChange{Table: table, Add: &col, Default: v})
	return nil
}

// DropColumn queues a logical drop of the named column: from the
// commit this transaction produces, the column disappears from the
// table's visible schema. Stored records keep its bytes and reads at
// earlier versions still see it; the name stays reserved. The primary
// key cannot be dropped. Applies atomically at commit, like AddColumn.
func (tx *Tx) DropColumn(table, column string) error {
	t, err := tx.table(table, true)
	if err != nil {
		return err
	}
	if t.Schema().ColumnIndex(column) < 0 {
		return fmt.Errorf("%w: no column %q in table %q", ErrSchemaChange, column, table)
	}
	if t.Schema().ColumnIndex(column) == 0 {
		return fmt.Errorf("%w: cannot drop the primary key column %q", ErrSchemaChange, column)
	}
	for _, ch := range tx.pending {
		if ch.Table == table && (ch.Drop == column || (ch.Add != nil && ch.Add.Name == column)) {
			return fmt.Errorf("%w: column %q already has a queued change", ErrSchemaChange, column)
		}
	}
	tx.pending = append(tx.pending, SchemaChange{Table: table, Drop: column})
	return nil
}

// SetMessage sets the commit message recorded when the callback
// returns successfully; without it the commit message names the branch.
func (tx *Tx) SetMessage(message string) { tx.message = message }

// Branch returns the name of the branch the transaction writes to.
func (tx *Tx) Branch() string { return tx.branch.Name }

// Context returns the context the transaction runs under: Transact's
// ctx, marked as holding the branch, so a locking call made with it
// fails with ErrNestedTransaction.
func (tx *Tx) Context() context.Context { return tx.ctx }

// BranchFromHead creates a branch named name off the current head of
// branch parent, holding parent's lock for the span so the branch point
// cannot move under a concurrent transaction.
func (db *Database) BranchFromHead(ctx context.Context, name, parent string) (*vgraph.Branch, error) {
	if err := db.admit(ctx); err != nil {
		return nil, err
	}
	defer db.dropSession()
	bs, unlock, err := db.lockBranches(ctx, parent)
	if err != nil {
		return nil, err
	}
	defer unlock()
	head, _ := db.graph.Head(bs[0].ID)
	return db.Branch(name, head)
}

// MergeContext merges the head of branch from into branch into across
// every relation and commits the result as a merge version; intoWins
// selects whether into (true) or from (false) wins conflicts. It takes
// both branches' locks, in branch-ID order, before reading either head,
// so it serializes with transactions on both branches instead of
// snapshotting a partial one, and two merges of one pair in opposite
// directions cannot deadlock. A self-merge locks its branch once and
// fails in the version graph. Cancellation is honored up to the
// engines' merge, which then runs through every relation.
func (db *Database) MergeContext(ctx context.Context, into, from, message string, kind MergeKind, intoWins bool) (*vgraph.Commit, MergeStats, error) {
	if err := db.admit(ctx); err != nil {
		return nil, MergeStats{}, err
	}
	defer db.dropSession()
	bs, unlock, err := db.lockBranches(ctx, into, from)
	if err != nil {
		return nil, MergeStats{}, err
	}
	defer unlock()
	return db.merge(ctx, bs[0].ID, bs[1].ID, message, kind, intoWins)
}
