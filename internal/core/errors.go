package core

import "errors"

// Sentinel errors for the conditions callers are expected to branch on.
// They are wrapped with %w wherever core raises them, so both core and
// facade consumers test with errors.Is rather than string matching. The
// public decibel package re-exports each of these under the same name.
var (
	// ErrNoSuchBranch reports a branch name or ID that does not exist
	// in the version graph.
	ErrNoSuchBranch = errors.New("decibel: no such branch")

	// ErrNoSuchTable reports a table name missing from the catalog.
	ErrNoSuchTable = errors.New("decibel: no such table")

	// ErrNoSuchCommit reports a commit ID absent from the version graph.
	ErrNoSuchCommit = errors.New("decibel: no such commit")

	// ErrNotAtHead reports a transaction's write or commit after its
	// branch's head moved past the commit the transaction started from
	// (only a lock-free ID-based Commit can move it); commits are only
	// allowed at branch heads (Section 2.2.3).
	ErrNotAtHead = errors.New("decibel: session is not at the branch head")

	// ErrSessionClosed reports any operation on a Tx after its
	// callback returned.
	ErrSessionClosed = errors.New("decibel: session closed")

	// ErrNestedTransaction reports a locking call (Transact,
	// BranchFromHead, MergeContext) made with the context of a running
	// transaction, whichever branch it names: a callback that took a
	// second branch lock could form a lock cycle, and one that re-took
	// its own would wait on itself.
	ErrNestedTransaction = errors.New("decibel: locking call inside a transaction")

	// ErrAlreadyInitialized reports Init on an initialized dataset, or
	// CreateTable after Init has frozen the schema set.
	ErrAlreadyInitialized = errors.New("decibel: dataset already initialized")

	// ErrDatabaseClosed reports an operation on a closed Database.
	ErrDatabaseClosed = errors.New("decibel: database closed")

	// ErrNoSuchColumn reports a column name (or index) absent from the
	// queried table's schema; raised at plan time by the query builder.
	ErrNoSuchColumn = errors.New("decibel: no such column")

	// ErrTypeMismatch reports a predicate or aggregate whose value type
	// does not fit the column it addresses (e.g. a bytes prefix on an
	// integer column); raised at plan time by the query builder.
	ErrTypeMismatch = errors.New("decibel: predicate type mismatch")

	// ErrBadQuery reports a structurally invalid query plan, such as a
	// historical At() combined with a multi-branch scan.
	ErrBadQuery = errors.New("decibel: invalid query")

	// ErrNoRows reports an aggregate (Min/Max) over a scan that matched
	// no records.
	ErrNoRows = errors.New("decibel: no rows")

	// ErrColumnNotYetAdded reports a reference to a column that exists
	// in the table's schema history but was added after the version the
	// operation addresses: an At(seq) query naming a column a later
	// commit introduced, or a write carrying the column to a branch
	// whose head predates it.
	ErrColumnNotYetAdded = errors.New("decibel: column not yet added at this version")

	// ErrSchemaChange reports an invalid schema-change request (duplicate
	// column, bad default, dropping the primary key, ...).
	ErrSchemaChange = errors.New("decibel: invalid schema change")

	// ErrDatasetFormat reports a dataset whose catalog.json carries no
	// format version, or another one than this build reads; the open
	// touches none of its files.
	ErrDatasetFormat = errors.New("decibel: unsupported dataset format")
)
