package decibel

import (
	"errors"

	"decibel/internal/core"
)

// Sentinel errors. Every operation that fails for one of these reasons
// returns an error wrapping the sentinel, so callers branch with
// errors.Is(err, decibel.ErrNoSuchBranch) instead of string matching.
var (
	// ErrNoSuchBranch reports a branch name or ID that does not exist.
	ErrNoSuchBranch = core.ErrNoSuchBranch

	// ErrNoSuchTable reports a table name missing from the catalog.
	ErrNoSuchTable = core.ErrNoSuchTable

	// ErrNoSuchCommit reports a commit ID absent from the version graph.
	ErrNoSuchCommit = core.ErrNoSuchCommit

	// ErrNotAtHead reports a Tx write or commit after the branch head
	// moved past the commit the transaction started from (only the
	// lock-free db.Database.Commit can move it).
	ErrNotAtHead = core.ErrNotAtHead

	// ErrSessionClosed reports any operation on a Tx retained past its
	// callback's return.
	ErrSessionClosed = core.ErrSessionClosed

	// ErrNestedTransaction reports a CommitContext, MergeContext or
	// BranchFromHead call made with the context of a running Commit
	// callback (tx.Context()), whichever branch it names.
	ErrNestedTransaction = core.ErrNestedTransaction

	// ErrAlreadyInitialized reports Init on an initialized dataset, or
	// CreateTable after Init.
	ErrAlreadyInitialized = core.ErrAlreadyInitialized

	// ErrUnknownEngine reports an engine name that is none of Engines'
	// names or their aliases.
	ErrUnknownEngine = errors.New("decibel: unknown engine")

	// ErrDatabaseClosed reports an operation on a closed DB.
	ErrDatabaseClosed = core.ErrDatabaseClosed

	// ErrNoSuchColumn reports a column name absent from the queried
	// table's schema (query builder, plan time).
	ErrNoSuchColumn = core.ErrNoSuchColumn

	// ErrTypeMismatch reports a predicate or aggregate whose value type
	// does not fit the column it addresses (query builder, plan time).
	ErrTypeMismatch = core.ErrTypeMismatch

	// ErrBadQuery reports a structurally invalid query, such as At()
	// combined with a multi-branch scan.
	ErrBadQuery = core.ErrBadQuery

	// ErrNoRows reports Min/Max over a scan that matched no records.
	ErrNoRows = core.ErrNoRows

	// ErrColumnNotYetAdded reports a reference to a column that was
	// added at a later schema version than the one the operation
	// addresses (an At(seq) query naming a column a later commit
	// introduced, or a write carrying it to a branch that has not
	// adopted the change).
	ErrColumnNotYetAdded = core.ErrColumnNotYetAdded

	// ErrSchemaChange reports an invalid Tx.AddColumn/DropColumn request
	// (duplicate column, bad default, dropping the primary key, ...).
	ErrSchemaChange = core.ErrSchemaChange

	// ErrDatasetFormat reports a dataset Open will not read: its
	// catalog.json carries no format version (it was written before the
	// format was versioned) or a newer one. Open leaves its files as
	// they are; docs/FORMAT.md describes the format.
	ErrDatasetFormat = core.ErrDatasetFormat
)
