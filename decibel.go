// Package decibel is the public API of this Decibel reproduction
// (Maddox et al., "Decibel: The Relational Dataset Branching System",
// PVLDB 2016): a dataset of relations versioned together under one
// version graph, with the git-like workflow of Section 2.2 — open,
// branch, insert, commit, diff, merge — over a choice of storage
// engine.
//
// Open a dataset with functional options and work with named branches —
// the IDs of the underlying version graph never need to appear:
//
//	db, err := decibel.Open(dir, decibel.WithEngine("hybrid"))
//	...
//	t, err := db.CreateTable("products", decibel.NewSchema().Int64("id").Float64("price").MustBuild())
//	_, _, err = db.Init("initial catalog")
//	_, err = db.Commit("master", func(tx *decibel.Tx) error {
//		rec := decibel.NewRecord(t.Schema())
//		rec.SetPK(1)
//		rec.SetFloat64(1, 9.99)
//		return tx.Insert("products", rec)
//	})
//	rows, scanErr := db.Rows("products", "master")
//	for rec := range rows { ... }
//	if err := scanErr(); err != nil { ... }
//
// Versioned queries — the paper's single-version scan, positive diff,
// version join and HEAD() scan — run through the fluent builder, with
// typed column predicates validated against the catalog and pushed
// down into the storage engine:
//
//	rows, qErr := db.Query("products").
//		On("master").
//		Where(decibel.Col("price").Lt(9.5)).
//		Select("sku", "price").
//		Rows()
//	annotated, _ := db.Query("products").Heads().Annotated() // one pass over all heads
//
// Every scan has a Context form (OpenContext, RowsContext, ...) that
// aborts promptly with ctx.Err() when the context is canceled.
//
// Compaction, which the paper does not have, is one call: a dataset
// opened WithCompaction("manual") re-encodes its frozen segments into
// compressed pages on DB.Compact. There is no background loop; a caller
// that wants periodic passes calls Compact from its own ticker.
//
// Storage engines register themselves by name ("tuple-first",
// "version-first", "hybrid", with short aliases "tf", "vf", "hy");
// importing this package links all three. Failure conditions worth
// branching on are exposed as sentinel errors (ErrNoSuchBranch,
// ErrNoSuchTable, ErrNotAtHead, ErrSchemaChange, ...) tested with
// errors.Is.
//
// The packages under internal/ are the engine-facing SPI and may change
// freely; everything a consumer needs is re-exported here and in the
// decibel/bench and decibel/gitstore companion packages.
package decibel

import (
	"context"

	"decibel/internal/bitmap"
	"decibel/internal/core"
	"decibel/internal/record"
	"decibel/internal/store"
	"decibel/internal/vgraph"

	// Link the three storage engines into every facade consumer:
	// internal/hy registers hybrid and tuple-first, internal/vf
	// version-first, each from init.
	_ "decibel/internal/hy"
	_ "decibel/internal/vf"
)

// DB is an open Decibel dataset: a collection of relations versioned
// together under one version graph. It embeds the ID-based core
// database and layers the name-based workflow on top — Commit, Branch
// and Merge address branches by name, so callers never handle raw
// branch or commit IDs. Every read is a query: Query builds one, and
// Rows and Diff are its two shorthands (a historical commit is
// Query(t).On(b).AtCommit(id)). The ID-based writes remain reachable
// through the embedded Database (db.Database.Branch from any commit,
// ...) for tools that already hold IDs.
type DB struct {
	*core.Database
}

// Core workflow types, aliased from the SPI so facade consumers never
// import decibel/internal/... themselves.
type (
	// Table is one versioned relation inside a DB.
	Table = core.Table

	// Record is one fixed-width tuple; column 0 is the int64 primary key.
	Record = record.Record

	// Schema is an ordered list of fixed-width columns; build one with
	// NewSchema.
	Schema = record.Schema

	// Column describes one schema column.
	Column = record.Column

	// ColumnType identifies a fixed-width column type (Int32, Int64,
	// Float64, Bytes).
	ColumnType = record.Type

	// Branch is a named working line: a head commit plus bookkeeping.
	Branch = vgraph.Branch

	// Commit is one immutable version in the graph.
	Commit = vgraph.Commit

	// BranchID identifies a branch.
	BranchID = vgraph.BranchID

	// CommitID identifies a commit; 0 is the invalid/none value.
	CommitID = vgraph.CommitID

	// Graph is the version graph: commits, branches, heads, LCAs.
	Graph = vgraph.Graph

	// Bitmap annotates multi-branch scan results with branch membership.
	Bitmap = bitmap.Bitmap

	// MergeKind selects the conflict model of a merge (TwoWay, ThreeWay).
	MergeKind = core.MergeKind

	// MergeStats summarizes a merge (conflicts, changed records, bytes).
	MergeStats = core.MergeStats

	// Stats reports a dataset's storage footprint.
	Stats = core.Stats

	// SegmentStat summarizes one storage segment — row count, schema
	// version id, freeze state and per-column zone map — for
	// diagnostics; see Table.SegmentStats and the CLI's `stats`.
	SegmentStat = store.SegmentStat

	// CompactionStats is what one compaction pass accomplished —
	// segments compressed, pages written, bytes reclaimed; returned by
	// DB.Compact.
	CompactionStats = store.CompactStats
)

// Column types. Int32 and Int64 are read and written with Record.Get
// and Record.Set; Float64 with GetFloat64/SetFloat64; Bytes — a
// fixed-capacity byte string whose capacity is declared per column —
// with GetBytes/SetBytes.
const (
	Int32   = record.Int32   // 4-byte signed integer
	Int64   = record.Int64   // 8-byte signed integer
	Float64 = record.Float64 // 8-byte IEEE 754 double
	Bytes   = record.Bytes   // fixed-capacity byte string
)

// Merge conflict models (Section 2.2.3).
const (
	TwoWay   = core.TwoWay   // tuple-granularity conflicts, precedence wins wholesale
	ThreeWay = core.ThreeWay // field-level merge against the lowest common ancestor
)

// Master is the name of the initial branch, "the authoritative branch
// of record for the evolving dataset".
const Master = vgraph.MasterName

// Open opens (or creates) the dataset at dir. With no options it uses
// the hybrid engine and default tuning; see WithEngine, WithPageSize,
// WithPoolPages and WithFsync.
func Open(dir string, opts ...Option) (*DB, error) {
	return OpenContext(context.Background(), dir, opts...)
}

// OpenContext is Open bounded by a context. Cancellation is checked
// before the open starts and between tables during catalog reload; an
// individual table's engine recovery runs to completion, so the
// effective granularity is one table. On cancellation the partially
// opened dataset is released and ctx.Err() returned.
func OpenContext(ctx context.Context, dir string, opts ...Option) (*DB, error) {
	cfg := newConfig(opts)
	factory, err := core.LookupEngine(cfg.engine)
	if err != nil {
		return nil, err
	}
	cdb, err := core.OpenContext(ctx, dir, factory, cfg.opt)
	if err != nil {
		return nil, err
	}
	return &DB{Database: cdb}, nil
}

// Engines returns the canonical names of all registered storage
// engines, sorted.
func Engines() []string { return core.EngineNames() }

// NewRecord allocates an empty record of the schema.
func NewRecord(s *Schema) *Record { return record.New(s) }

// BenchmarkSchema returns the paper's benchmark schema: an int64
// primary key plus Int32 columns padding the encoded record to about
// recordBytes.
func BenchmarkSchema(recordBytes int) *Schema { return record.Benchmark(recordBytes) }
