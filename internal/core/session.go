package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"decibel/internal/lock"
	"decibel/internal/record"
	"decibel/internal/vgraph"
)

// Session captures a user's state — "the commit (or the branch) that
// the operations the user issues will read or modify" (Section 2.2.3).
// Sessions acquire branch-level locks under strict two-phase locking:
// writes take an exclusive lock on the branch head, reads a shared
// lock; all locks are held until Commit or Close.
type Session struct {
	mu     sync.Mutex
	db     *Database
	txn    uint64
	branch *vgraph.Branch // current working branch (writes allowed at head)
	commit *vgraph.Commit // checked-out commit (reads see this version)
	// pending collects schema changes queued with AddColumn/DropColumn;
	// they take effect atomically at CommitWork and are discarded when
	// the session closes without committing.
	pending []SchemaChange
	closed  bool
}

// NewSession opens a session positioned at the head of master. Once
// the database is closed — or a CloseContext drain has begun — it
// fails with ErrDatabaseClosed.
func (db *Database) NewSession() (*Session, error) {
	if err := db.beginOp(); err != nil {
		return nil, err
	}
	defer db.endOp()
	if err := db.addSession(); err != nil {
		return nil, err
	}
	db.mu.Lock()
	db.nextTxn++
	txn := db.nextTxn
	db.mu.Unlock()
	s := &Session{db: db, txn: txn}
	if master, ok := db.graph.BranchByName(vgraph.MasterName); ok {
		if err := s.Checkout(master.Name); err != nil {
			db.dropSession()
			return nil, err
		}
	}
	return s, nil
}

func branchResource(b vgraph.BranchID) string { return fmt.Sprintf("branch:%d", b) }

// Checkout positions the session at the head of the named branch.
func (s *Session) Checkout(branch string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	b, ok := s.db.graph.BranchByName(branch)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchBranch, branch)
	}
	head, _ := s.db.graph.Commit(b.Head)
	s.branch = b
	s.commit = head
	return nil
}

// CheckoutCommit positions the session at a historical version:
// subsequent reads "revert the state of the dataset back to that state
// within their own session". Writes are rejected until the session
// checks out a branch head again.
func (s *Session) CheckoutCommit(id vgraph.CommitID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	c, ok := s.db.graph.Commit(id)
	if !ok {
		return fmt.Errorf("%w: commit %d", ErrNoSuchCommit, id)
	}
	s.commit = c
	s.branch = nil
	if b, ok := s.db.graph.BranchOf(id); ok {
		s.branch = b
	}
	return nil
}

// CheckoutForWrite positions the session at the head of the named
// branch after acquiring the branch's exclusive lock, re-reading the
// head under the lock. Unlike Checkout, this serializes with concurrent
// committers: a session that waited for the lock sees the head the
// previous transaction produced instead of failing ErrNotAtHead. The
// lock is held until CommitWork or Close (strict 2PL); a canceled ctx
// aborts the lock wait with ctx.Err().
func (s *Session) CheckoutForWrite(ctx context.Context, branch string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	b, ok := s.db.graph.BranchByName(branch)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchBranch, branch)
	}
	if err := s.db.locks.AcquireContext(ctx, s.txn, branchResource(b.ID), lock.Exclusive); err != nil {
		return err
	}
	cur, ok := s.db.graph.Branch(b.ID)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchBranch, branch)
	}
	head, _ := s.db.graph.Commit(cur.Head)
	s.branch = cur
	s.commit = head
	return nil
}

// AcquireBranch takes a shared or exclusive lock on the named branch's
// head without repositioning the session, held until CommitWork or
// Close like every session lock. Multi-branch operations (merge,
// branch-from-head) use it to pin the branches they read against
// concurrent committers.
func (s *Session) AcquireBranch(ctx context.Context, branch string, exclusive bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	b, ok := s.db.graph.BranchByName(branch)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchBranch, branch)
	}
	mode := lock.Shared
	if exclusive {
		mode = lock.Exclusive
	}
	return s.db.locks.AcquireContext(ctx, s.txn, branchResource(b.ID), mode)
}

// Revert restores the given primary keys of a table to the branch's
// last committed state, undoing any uncommitted head writes to those
// keys: keys that existed at the head commit get their committed record
// re-inserted, keys that did not are deleted. The facade's
// transactional Commit uses this to roll back an aborted callback.
// Requires the session to be at a branch head; takes the branch's
// exclusive lock.
func (s *Session) Revert(ctx context.Context, table string, pks []int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := s.atHead()
	if err != nil {
		return err
	}
	t, ok := s.db.Table(table)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, table)
	}
	if err := s.db.locks.AcquireContext(ctx, s.txn, branchResource(b.ID), lock.Exclusive); err != nil {
		return err
	}
	head, ok := s.db.graph.Commit(b.Head)
	if !ok {
		return fmt.Errorf("%w: commit %d", ErrNoSuchCommit, b.Head)
	}
	need := make(map[int64]bool, len(pks))
	for _, pk := range pks {
		need[pk] = true
	}
	// Collect the committed versions first, then write: engines are not
	// required to support mutation during an active scan.
	var restore []*record.Record
	if err := t.ScanCommit(head, func(rec *record.Record) bool {
		if need[rec.PK()] {
			restore = append(restore, rec.Clone())
			delete(need, rec.PK())
		}
		return true
	}); err != nil {
		return err
	}
	for _, rec := range restore {
		if err := t.Insert(b.ID, rec); err != nil {
			return err
		}
	}
	for pk := range need {
		if err := t.Delete(b.ID, pk); err != nil {
			return err
		}
	}
	return nil
}

// CheckoutAt positions the session at a historical commit addressed by
// name: the seq'th commit made on the named branch, zero-based (the CLI
// spells this "checkout <branch>@<seq>"). Checking out the branch's
// newest commit re-attaches the session to the head, so writes are
// allowed again; older commits leave it detached for reads.
func (s *Session) CheckoutAt(branch string, seq int) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrSessionClosed
	}
	s.mu.Unlock()
	b, ok := s.db.graph.BranchByName(branch)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchBranch, branch)
	}
	c, ok := s.db.graph.CommitAt(b.ID, seq)
	if !ok {
		return fmt.Errorf("%w: %s@%d", ErrNoSuchCommit, branch, seq)
	}
	return s.CheckoutCommit(c.ID)
}

// Branch returns the session's current branch (nil when detached at a
// historical commit).
func (s *Session) Branch() *vgraph.Branch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.branch
}

// Commit returns the session's checked-out commit.
func (s *Session) Commit() *vgraph.Commit {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commit
}

// atHead reports whether the session may write: it must be positioned
// at the head of a branch ("most operations will occur on the heads of
// the branches"; commits to non-head versions are not allowed).
func (s *Session) atHead() (*vgraph.Branch, error) {
	if s.closed {
		return nil, ErrSessionClosed
	}
	if s.branch == nil {
		return nil, fmt.Errorf("%w; checkout a branch to write", ErrDetachedHead)
	}
	b, _ := s.db.graph.Branch(s.branch.ID)
	if s.commit == nil || b.Head != s.commit.ID {
		return nil, fmt.Errorf("%w; checkout the branch to write", ErrNotAtHead)
	}
	return b, nil
}

// Insert upserts a record into the session's branch head under an
// exclusive branch lock.
func (s *Session) Insert(table string, rec *record.Record) error {
	return s.InsertContext(context.Background(), table, rec)
}

// InsertContext is Insert bounded by a context: a blocked lock wait
// aborts with ctx.Err() when ctx is canceled.
func (s *Session) InsertContext(ctx context.Context, table string, rec *record.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := s.atHead()
	if err != nil {
		return err
	}
	t, ok := s.db.Table(table)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, table)
	}
	if err := s.db.locks.AcquireContext(ctx, s.txn, branchResource(b.ID), lock.Exclusive); err != nil {
		return err
	}
	return t.Insert(b.ID, rec)
}

// InsertBatch upserts a batch of records into the session's branch
// head under one exclusive branch lock acquisition, amortizing the
// per-record lock and validation overhead of Insert.
func (s *Session) InsertBatch(table string, recs []*record.Record) error {
	return s.InsertBatchContext(context.Background(), table, recs)
}

// InsertBatchContext is InsertBatch bounded by a context: a blocked
// lock wait aborts with ctx.Err() when ctx is canceled. On error a
// prefix of the batch may have been applied to the (uncommitted)
// branch head; the caller's transaction rollback or the write-ahead
// log cleans it up like any aborted write.
func (s *Session) InsertBatchContext(ctx context.Context, table string, recs []*record.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := s.atHead()
	if err != nil {
		return err
	}
	t, ok := s.db.Table(table)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, table)
	}
	if err := s.db.locks.AcquireContext(ctx, s.txn, branchResource(b.ID), lock.Exclusive); err != nil {
		return err
	}
	return t.InsertBatch(b.ID, recs)
}

// Delete removes a key from the session's branch head under an
// exclusive branch lock.
func (s *Session) Delete(table string, pk int64) error {
	return s.DeleteContext(context.Background(), table, pk)
}

// DeleteContext is Delete bounded by a context.
func (s *Session) DeleteContext(ctx context.Context, table string, pk int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := s.atHead()
	if err != nil {
		return err
	}
	t, ok := s.db.Table(table)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, table)
	}
	if err := s.db.locks.AcquireContext(ctx, s.txn, branchResource(b.ID), lock.Exclusive); err != nil {
		return err
	}
	return t.Delete(b.ID, pk)
}

// Scan reads the session's current version of a table under a shared
// branch lock (historical checkouts read the committed snapshot and
// need no lock: versions are immutable).
func (s *Session) Scan(table string, fn ScanFunc) error {
	return s.ScanContext(context.Background(), table, fn)
}

// ScanContext is Scan bounded by a context: lock waits and the scan
// itself are abandoned as soon as ctx is canceled.
func (s *Session) ScanContext(ctx context.Context, table string, fn ScanFunc) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrSessionClosed
	}
	t, ok := s.db.Table(table)
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoSuchTable, table)
	}
	branch := s.branch
	commit := s.commit
	s.mu.Unlock()
	if branch != nil {
		if cur, _ := s.db.graph.Branch(branch.ID); cur != nil && commit != nil && cur.Head == commit.ID {
			if err := s.db.locks.AcquireContext(ctx, s.txn, branchResource(branch.ID), lock.Shared); err != nil {
				return err
			}
			return t.ScanContext(ctx, branch.ID, fn)
		}
	}
	if commit == nil {
		return errors.New("core: session has no checked-out version")
	}
	return t.ScanCommitContext(ctx, commit, fn)
}

// atHeadForSchema is atHead for queuing schema changes, failing fast
// with a clear sentinel when the session is detached: altering a
// historical checkout can never succeed (schema changes commit at a
// branch head), so instead of the generic ErrNotAtHead — which for
// plain writes just means "re-checkout and retry" and would otherwise
// only surface at commit time — the error wraps both ErrSchemaChange
// and ErrDetachedHead for errors.Is.
func (s *Session) atHeadForSchema() (*vgraph.Branch, error) {
	if s.closed {
		return nil, ErrSessionClosed
	}
	if s.branch == nil {
		return nil, fmt.Errorf("%w: %w; schema changes commit at a branch head", ErrSchemaChange, ErrDetachedHead)
	}
	b, _ := s.db.graph.Branch(s.branch.ID)
	if s.commit == nil || b.Head != s.commit.ID {
		return nil, fmt.Errorf("%w: %w; the session is checked out at a historical commit — checkout the branch head to alter",
			ErrSchemaChange, ErrDetachedHead)
	}
	return b, nil
}

// AddColumn queues a schema change on the session: from the commit
// that carries it, the named table gains the column with the given
// default (nil = zero value). The change applies atomically at
// CommitWork — inserts inside the same transaction still write the old
// shape, and the new column becomes writable from the next transaction
// on the branch. Records already stored are never rewritten: reads
// fill the default.
func (s *Session) AddColumn(table string, col record.Column, def any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.atHeadForSchema(); err != nil {
		return err
	}
	t, ok := s.db.Table(table)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, table)
	}
	// Validate eagerly so the caller hears about bad changes at queue
	// time: name collisions (with the history and with other queued
	// changes) and ill-typed defaults.
	if _, _, exists := t.History().ColumnEpochs(col.Name); exists {
		return fmt.Errorf("%w: column %q already exists in table %q", ErrSchemaChange, col.Name, table)
	}
	for _, ch := range s.pending {
		if ch.Table == table && ch.Add != nil && ch.Add.Name == col.Name {
			return fmt.Errorf("%w: column %q already queued for table %q", ErrSchemaChange, col.Name, table)
		}
	}
	if _, err := record.EncodeDefault(col, def); err != nil {
		return fmt.Errorf("%w: %v", ErrSchemaChange, err)
	}
	c := col
	s.pending = append(s.pending, SchemaChange{Table: table, Add: &c, Default: def})
	return nil
}

// DropColumn queues a logical column drop on the session: from the
// commit that carries it, the column disappears from the table's
// visible schema (reads at earlier versions still see it, and its
// bytes stay in stored records). Applies atomically at CommitWork,
// like AddColumn.
func (s *Session) DropColumn(table, column string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.atHeadForSchema(); err != nil {
		return err
	}
	t, ok := s.db.Table(table)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, table)
	}
	if t.Schema().ColumnIndex(column) < 0 {
		return fmt.Errorf("%w: no column %q in table %q", ErrSchemaChange, column, table)
	}
	if t.Schema().ColumnIndex(column) == 0 {
		return fmt.Errorf("%w: cannot drop the primary key column %q", ErrSchemaChange, column)
	}
	for _, ch := range s.pending {
		if ch.Table == table && (ch.Drop == column || (ch.Add != nil && ch.Add.Name == column)) {
			return fmt.Errorf("%w: column %q already has a queued change", ErrSchemaChange, column)
		}
	}
	s.pending = append(s.pending, SchemaChange{Table: table, Drop: column})
	return nil
}

// PendingSchemaChanges reports how many schema changes the session has
// queued for its next CommitWork.
func (s *Session) PendingSchemaChanges() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// CommitWork commits the session's branch, making its updates
// atomically visible, and releases all locks (end of the 2PL
// transaction).
func (s *Session) CommitWork(message string) (*vgraph.Commit, error) {
	return s.CommitWorkContext(context.Background(), message)
}

// CommitWorkContext is CommitWork bounded by a context. Cancellation is
// honored up to the point the commit is handed to the engines; the
// commit itself is not interruptible, so a canceled context either
// aborts before any state changes or the commit completes in full.
func (s *Session) CommitWorkContext(ctx context.Context, message string) (*vgraph.Commit, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := s.atHead()
	if err != nil {
		return nil, err
	}
	if err := s.db.locks.AcquireContext(ctx, s.txn, branchResource(b.ID), lock.Exclusive); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var c *vgraph.Commit
	if len(s.pending) > 0 {
		c, err = s.db.CommitSchema(b.ID, message, s.pending)
	} else {
		c, err = s.db.Commit(b.ID, message)
	}
	s.db.locks.ReleaseAll(s.txn)
	if err != nil {
		return nil, err
	}
	s.pending = nil
	s.commit = c
	return c, nil
}

// Close releases the session's locks without committing and
// unregisters it from the database's session count; a CloseContext
// drain waiting on the last session wakes here.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.db.locks.ReleaseAll(s.txn)
		s.closed = true
		s.db.dropSession()
	}
}
