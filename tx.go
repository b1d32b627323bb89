package decibel

import (
	"context"
	"fmt"

	"decibel/internal/core"
)

// Tx is the handle a name-based Commit hands to its callback: a single
// writer positioned at the target branch head, holding the branch's
// lock under two-phase locking until the commit (or the callback's
// error) ends the transaction. All Tx operations address tables by
// name: Insert, InsertBatch, Delete, Rows (the head, including the
// transaction's own writes), AddColumn, DropColumn, SetMessage, Branch
// and Context.
//
// A Tx is only valid inside its callback; retaining it past the
// callback's return yields ErrSessionClosed.
type Tx = core.Tx

// ColumnDefault carries the default value of a column added by
// Tx.AddColumn; build one with Default.
type ColumnDefault = core.ColumnDefault

// Default declares the value existing records show for a column added
// after they were stored: integers for Int32/Int64 columns, floats
// (or integers) for Float64, strings or []byte for Bytes. Omitting the
// default yields the column type's zero value.
func Default(v any) ColumnDefault { return core.Default(v) }

// Commit runs fn as one transaction against the named branch's head
// and, if fn returns nil, commits the branch — making every write fn
// issued atomically visible as a new version whose *Commit is
// returned. The branch's lock is held for the span of the callback
// (strict two-phase locking), so concurrent Commits to the same branch
// serialize while Commits to different branches proceed in parallel.
//
// fn must not Commit, Branch or Merge. A CommitContext, MergeContext
// or BranchFromHead call made with tx.Context() fails at once with
// ErrNestedTransaction, whichever branch it names. One made with an
// unrelated context on the branch fn holds waits, as a re-locked
// sync.Mutex does, until that context ends; a plain Commit or Merge of
// that branch waits forever.
//
// If fn returns an error, nothing is committed and the error is
// returned: every key fn wrote is restored to its last committed state
// before Commit returns, so an aborted transaction leaves no residue on
// the branch head. (Should that restoration itself fail, its error is
// joined to fn's; the head is then rolled back by the write-ahead log
// when the dataset is next opened.)
func (db *DB) Commit(branch string, fn func(*Tx) error) (*Commit, error) {
	return db.Transact(context.Background(), branch, fn)
}

// CommitContext is Commit bounded by a context: the lock wait, the
// callback's Tx operations, and the final commit handoff all abort
// with ctx.Err() once ctx is canceled. The lock wait has no other
// bound.
func (db *DB) CommitContext(ctx context.Context, branch string, fn func(*Tx) error) (*Commit, error) {
	return db.Transact(ctx, branch, fn)
}

// Branch creates a new branch named name from the current head of
// branch from, across every relation of the dataset. It holds from's
// lock for the duration, so the branch point cannot move under a
// concurrent committer.
func (db *DB) Branch(from, name string) (*Branch, error) {
	return db.BranchFromHead(context.Background(), name, from)
}

// mergeConfig collects Merge options; the defaults are the paper's:
// field-level three-way merge with the branch merged into winning
// conflicting fields.
type mergeConfig struct {
	message  string
	kind     MergeKind
	intoWins bool
}

// MergeOption configures DB.Merge.
type MergeOption func(*mergeConfig)

// WithMergeMessage sets the merge commit's message.
func WithMergeMessage(message string) MergeOption {
	return func(c *mergeConfig) { c.message = message }
}

// WithMergeKind selects the conflict model (TwoWay or ThreeWay;
// default ThreeWay).
func WithMergeKind(kind MergeKind) MergeOption {
	return func(c *mergeConfig) { c.kind = kind }
}

// WithMergePrecedence selects which side wins conflicting fields: true
// keeps the branch merged into (the default), false takes the branch
// being merged from.
func WithMergePrecedence(intoWins bool) MergeOption {
	return func(c *mergeConfig) { c.intoWins = intoWins }
}

// Merge merges the head of branch from into branch into across every
// relation and commits the result, returning the merge commit and
// per-merge statistics. By default it performs the paper's field-level
// three-way merge against the branches' lowest common ancestor, with
// into winning conflicting fields; see WithMergeKind, WithMergePrecedence
// and WithMergeMessage.
//
// Merge takes the locks of both branches, in branch-ID order, before
// reading either head, so it serializes with name-based Commits on both
// branches instead of snapshotting a concurrent transaction's partial
// writes. Because every caller takes the pair in the same order, two
// merges of the same branches in opposite directions cannot deadlock;
// they run one after the other. Merging a branch into itself fails.
func (db *DB) Merge(into, from string, opts ...MergeOption) (*Commit, MergeStats, error) {
	return db.MergeContext(context.Background(), into, from, opts...)
}

// MergeContext is Merge bounded by a context: the lock waits and the
// start of the engines' merge honor cancellation. A merge that has
// started runs through every relation, because a merge commit some
// relations applied and others did not is what the commit point exists
// to rule out.
func (db *DB) MergeContext(ctx context.Context, into, from string, opts ...MergeOption) (*Commit, MergeStats, error) {
	cfg := mergeConfig{
		message:  fmt.Sprintf("merge %s into %s", from, into),
		kind:     ThreeWay,
		intoWins: true,
	}
	for _, o := range opts {
		o(&cfg)
	}
	return db.Database.MergeContext(ctx, into, from, cfg.message, cfg.kind, cfg.intoWins)
}
