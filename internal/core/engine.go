// Package core defines Decibel's public API: the Database and its one
// write transaction, Tx (Section 2.2), the storage Engine contract that
// the tuple-first, version-first, and hybrid schemes implement (Section
// 3), and the versioned operations — branch, commit, checkout, diff,
// merge, and the one scan driver every single- and multi-branch read
// runs through.
package core

import (
	"fmt"

	"decibel/internal/bitmap"
	"decibel/internal/heap"
	"decibel/internal/record"
	"decibel/internal/store"
	"decibel/internal/vgraph"
)

// ScanFunc receives each record of a scan; returning false stops the
// scan. The record may alias a buffer-pool frame or scratch: its bytes
// are valid only until fn returns, and may be overwritten once the scan
// moves on (the pool reuses an evicted page's frame for the next miss).
// Clone it to keep it.
type ScanFunc func(rec *record.Record) bool

// MergeKind selects the conflict model of a merge.
type MergeKind int

const (
	// TwoWay detects conflicts at tuple granularity and takes every
	// conflicting record wholesale from the precedence branch.
	TwoWay MergeKind = iota
	// ThreeWay compares both branches field-by-field against their
	// lowest common ancestor; non-overlapping field updates auto-merge
	// and only overlapping fields fall back to precedence (Section
	// 2.2.3).
	ThreeWay
)

func (k MergeKind) String() string {
	if k == TwoWay {
		return "two-way"
	}
	return "three-way"
}

// MergeStats summarizes a merge for the caller and the benchmark
// harness (Table 3 reports merge throughput over the diffed bytes).
type MergeStats struct {
	Conflicts int // records with conflicting modifications
	ChangedA  int // records modified in the first branch since the LCA
	ChangedB  int // records modified in the second branch since the LCA
	// DiffBytes is one record size per slot in either head's XOR against
	// the LCA: the same for every engine, as their copies are.
	DiffBytes     int64
	Materialized  int   // resolved records physically written by the merge
	TuplesScanned int64 // records read: the XORs' slots (vf's Diverged too), both-changed copies
}

// Stats reports an engine's storage footprint.
type Stats struct {
	Records      int64 // record slots stored, dead copies included
	DataBytes    int64 // heap/segment file bytes
	IndexBytes   int64 // in-memory bitmap/index bytes (approximate)
	IndexEntries int64 // record positions held by the tables' primary-key indexes
	CommitBytes  int64 // on-disk commit history bytes
	SegmentCount int   // number of heap/segment files
	LiveRecords  int64 // records live in at least one branch head (approximate)
	PoolBytes    int64 // capacity of resident buffer-pool frames (Database.Stats; engines leave 0)
	// PageCacheBytes is what the decoded dcz page caches keep resident:
	// every decoded page's rows plus the page block its planes point
	// into.
	PageCacheBytes int64
}

// Env is the shared environment a Database hands to its engines.
type Env struct {
	Dir    string         // engine-private directory (exists)
	Schema *record.Schema // table schema at open time (base of Hist)
	// Hist is the table's versioned schema history. Engines consult it
	// for the physical layout of each stored file (tagged with its
	// column count at creation), the current layout new appends use,
	// and the conversions that decode old buffers with defaults filled.
	// A nil Hist (engines opened outside a Database, e.g. in tests)
	// behaves as a single-version history over Schema.
	Hist  *record.History
	Graph *vgraph.Graph // shared version graph
	Pool  *heap.Pool    // shared buffer pool
	Opt   Options       // global options
}

// History returns the table's schema history, lazily wrapping Schema
// when the Env was built without one.
func (env *Env) History() *record.History {
	if env.Hist == nil {
		env.Hist = record.NewHistory(env.Schema)
	}
	return env.Hist
}

// BranchEpoch returns the schema epoch at the head of a branch: the
// version a head scan of the branch resolves its schema at, and the
// generation its writes encode under.
func (env *Env) BranchEpoch(b vgraph.BranchID) int {
	if env.Graph == nil {
		return 0
	}
	br, ok := env.Graph.Branch(b)
	if !ok {
		return 0
	}
	c, ok := env.Graph.Commit(br.Head)
	if !ok {
		return 0
	}
	return c.SchemaVer
}

// BranchPoint returns the commit a branch was created at. An engine
// that has no committed state for a branch — it was never committed to,
// or the engine never saw it: the graph logs a branch before the engines
// run — recovers it at open as a branch from that commit.
func (env *Env) BranchPoint(b *vgraph.Branch) (*vgraph.Commit, error) {
	from, ok := env.Graph.Commit(b.From)
	if !ok {
		return nil, fmt.Errorf("recover branch %d: missing branch-point commit %d", b.ID, b.From)
	}
	return from, nil
}

// Options tunes storage behaviour. The zero value gives sensible
// defaults, noted per field.
type Options struct {
	PageSize  int  // a new dataset's heap page size in bytes (0 = heap.DefaultPageSize); an existing one keeps its catalog's
	PoolPages int  // buffer pool capacity in pages (0 = 64)
	Fsync     bool // fsync on commit (off for benchmarks, like the paper's load phase)

	// VFLineageCacheOff turns the version-first lineage cache off —
	// its scan-plan cache, the plan derivations that build on it and the
	// lineage memos — so every plan takes the full lineage walk, which
	// reads no version index: the reference the cache-equivalence tests
	// compare against. Only the version-first engine consults it.
	VFLineageCacheOff bool

	// CompactionFailPoint, when set to store.FailAfterTemp or
	// store.FailBeforeUnlink, aborts every compaction pass at that
	// point, leaving disk as a crash there would: the crash-recovery
	// tests' hook, never set outside them.
	CompactionFailPoint string
}

// Factory constructs an engine rooted at env.Dir. Implemented by
// hy.Factory (hybrid), hy.TupleFirstFactory (tuple-first: the same
// engine with one shared segment chain) and vf.Factory.
type Factory func(env *Env) (Engine, error)

// Engines resolves an engine name to its factory: the name a new
// dataset is created with, or the one a dataset's catalog.json records,
// the Kind of the engine that wrote it.
type Engines func(name string) (Factory, error)

// Engine is the storage-engine contract of Section 3. One Engine stores
// one relation across all branches and versions. The Database advances
// the version graph in memory before the corresponding engine hook
// runs, so engines may consult env.Graph for parents and sequence
// numbers (a merge's LCA is handed to them). On disk the order differs
// by operation: a branch is in the graph's log before Branch runs, a
// commit only after Init, Commit or Merge has returned on every
// relation. An engine must therefore open on files that are ahead of
// the graph by one commit — and read every branch as of its last commit
// in the graph — and on a branch it has never seen, which it creates
// then, at its branch point.
//
// Write operations address branch heads ("it is expected that most
// operations will occur on the heads of the branches"), and the engine
// that stored a head's uncommitted writes is the one that undoes them
// (Rollback), as it does at open. Reads go
// through exactly two methods, and neither sees a scan's shape: Live
// says which slots of which slot space the requested versions hold —
// the one thing the three schemes differ in — and LookupPK resolves one
// key of one version without a walk. Everything built from those —
// combining versions for a diff or a multi-branch scan, the unit walk,
// the loops above it, and a merge's key discovery for the bitmap
// engines (Merge.Changed) — lives in this package.
type Engine interface {
	// Kind returns the scheme name: "tuple-first", "version-first" or
	// "hybrid". catalog.json records it, and every open looks it up.
	Kind() string

	// Init prepares storage for the initial master branch and its empty
	// init commit.
	Init(master *vgraph.Branch, c0 *vgraph.Commit) error

	// Branch creates storage for a new branch rooted at commit from
	// (which may be any commit on any branch, head or historical).
	Branch(child *vgraph.Branch, from *vgraph.Commit) error

	// Commit snapshots the current state of c.Branch as version c.
	Commit(c *vgraph.Commit) error

	// InsertBatch upserts records into the head of a branch under one
	// acquisition of the engine's lock: each record's copy is appended
	// and any previous copy with the same primary key stops being live
	// in that branch (Decibel copies complete records on each update).
	// On error a prefix of the batch may have been applied.
	InsertBatch(branch vgraph.BranchID, recs []*record.Record) error

	// Delete removes the record with the given primary key from the
	// branch head. Deleting an absent key is a no-op returning nil.
	Delete(branch vgraph.BranchID, pk int64) error

	// Rollback returns the branch head to commit to — its last commit,
	// as the version graph holds it — undoing every write made to the
	// head since: what an aborted transaction leaves behind.
	Rollback(branch vgraph.BranchID, to *vgraph.Commit) error

	// Live calls fn, under the engine lock, with the engine's slot
	// spaces that hold a live slot in any of the versions, in scan
	// order, each with one liveness bitmap per version. Whatever fn
	// keeps of a Mutable space's bitmaps it copies before returning; the
	// lock is what makes the spaces one consistent snapshot.
	Live(vs []Version, fn func([]SlotSpace) error) error

	// LookupPK resolves one primary key in one version without a
	// segment walk. It returns a private copy of the stored buffer of
	// the key's live record and the physical column count it is laid
	// out under; a nil buf means the key is not live in that version.
	// A version the engine cannot address answers as Live does: nothing
	// live, or Live's error.
	LookupPK(v Version, pk int64) (buf []byte, physCols int, err error)

	// Merge merges the head of branch m.Other into branch m.Into. The
	// merge commit and its LCA are already in the graph. The engine finds
	// the keys the merge must look at — those either side changed since
	// the LCA: Merge.Changed over its slot spaces, or whatever else its
	// storage mapping makes cheap — and passes each to m.Resolve with a
	// MergeTarget over its storage; it reads neither the merge kind nor
	// the precedence. After Merge returns, the head of m.Into reflects
	// the merged state and m.Commit is its committed snapshot.
	Merge(m *Merge) error

	// Stats reports the storage footprint.
	Stats() (Stats, error)

	// SegmentStats reports each segment's row count, schema-version id
	// and zone map, for diagnostics.
	SegmentStats() []store.SegmentStat

	// CompactSegments runs one compaction pass: re-encode frozen
	// segments into compressed pages in place — slot numbering
	// preserved, so no bitmap, log or index entry changes — through the
	// segment catalog's crash-safe loop (store.Catalog.Compact), which
	// the engine gives only which segments qualify.
	CompactSegments() (store.CompactStats, error)

	// Flush saves the catalog without closing: every segment's
	// appended rows reach its file, then the catalog file is replaced.
	Flush() error

	// Close flushes and releases all resources.
	Close() error
}

// ReconcileLog brings a branch's commit history file into line with
// the version graph, which says the file should hold want commits. The
// graph's log record is a commit's commit point and is written after
// the engines' own, so entries past want belong to a commit that never
// happened — a crash, or an engine failure, came first — and are
// dropped.
func ReconcileLog(l *bitmap.CommitLog, branch vgraph.BranchID, want int) error {
	if have := l.NumCommits(); have < want {
		return BehindGraph(branch, want, have)
	}
	return l.Truncate(want)
}

// BehindGraph is the error for an engine that holds fewer commits of a
// branch than the version graph. No order of events produces that, only
// lost files, and the engine cannot serve commits it has no record of.
func BehindGraph(branch vgraph.BranchID, graph, engine int) error {
	return fmt.Errorf("branch %d has %d commits in the version graph but %d in the storage engine", branch, graph, engine)
}
