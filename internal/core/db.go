package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"decibel/internal/heap"
	"decibel/internal/lock"
	"decibel/internal/record"
	"decibel/internal/store"
	"decibel/internal/vgraph"
	"decibel/internal/wal"
)

// Database is a Decibel dataset: a collection of relations versioned
// together under one version graph (Section 2.2.1: "the main unit of
// storage is the dataset ... a collection of relations"). All relations
// share the same storage scheme, buffer pool and branch structure; a
// commit snapshots every relation atomically.
type Database struct {
	mu      sync.Mutex
	closeMu sync.RWMutex // held shared for the span of every operation; exclusively by Close
	dir     string
	opt     Options
	factory Factory

	graph *vgraph.Graph
	pool  *heap.Pool
	locks *lock.Manager

	tables map[string]*Table
	order  []string // table creation order

	epoch   int           // committed schema epoch (max SchemaVer across the graph)
	nextTxn atomic.Uint64 // lock owner ids (see admit)
	closed  atomic.Bool

	// Parallel scan pool: scanSem bounds the frozen-segment scan
	// goroutines all tables share; scanWorkers is its size.
	scanWorkers int
	scanSem     chan struct{}

	// Admission drain (CloseContext): draining refuses new transactions
	// while the active ones finish; sessWait is closed when the last
	// active one leaves, waking the drainer.
	draining atomic.Bool
	sessMu   sync.Mutex
	sessions int
	sessWait chan struct{}
}

// Table is one versioned relation inside a Database.
type Table struct {
	name   string
	hist   *record.History
	engine Engine
	db     *Database
}

// catalog is the persisted table list with each table's full schema
// history: the ordered physical columns annotated with the schema
// epoch that added (and, for logical drops, hid) them, plus encoded
// defaults for columns added after table creation.
type catalog struct {
	Tables []catalogTable `json:"tables"`
}

type catalogTable struct {
	Name    string          `json:"name"`
	Columns []catalogColumn `json:"columns"`
}

type catalogColumn struct {
	Name      string `json:"name"`
	Type      uint8  `json:"type"`
	Size      int    `json:"size,omitempty"`      // payload capacity of Bytes columns
	AddedIn   int    `json:"addedIn,omitempty"`   // schema epoch that introduced the column (0 = creation)
	DroppedIn int    `json:"droppedIn,omitempty"` // schema epoch that hid it (0 = never)
	Default   []byte `json:"default,omitempty"`   // encoded default for added columns
}

// Open opens (or creates) the dataset at dir using the given storage
// engine factory. Existing tables are reloaded from the catalog;
// committed state is recovered and uncommitted modifications are rolled
// back by the engines.
func Open(dir string, factory Factory, opt Options) (*Database, error) {
	return OpenContext(context.Background(), dir, factory, opt)
}

// OpenContext is Open bounded by a context: cancellation is checked
// before the open starts and between tables during catalog reload
// (each table's engine recovery runs to completion), and already-opened
// resources are released on abort.
func OpenContext(ctx context.Context, dir string, factory Factory, opt Options) (*Database, error) {
	if factory == nil {
		return nil, errors.New("core: nil engine factory")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "tables"), 0o755); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	graph, err := vgraph.Open(dir, opt.Fsync)
	if err != nil {
		return nil, err
	}
	workers := resolveScanWorkers(opt)
	db := &Database{
		dir:         dir,
		opt:         opt,
		factory:     factory,
		graph:       graph,
		pool:        heap.NewPool(opt.PoolPages, opt.PageSize),
		locks:       lock.NewManager(0),
		tables:      make(map[string]*Table),
		scanWorkers: workers,
		scanSem:     make(chan struct{}, workers),
	}
	if err := db.loadCatalogContext(ctx); err != nil {
		for _, t := range db.Tables() {
			t.engine.Close()
		}
		graph.Close()
		return nil, err
	}
	return db, nil
}

func (db *Database) catalogPath() string { return filepath.Join(db.dir, "catalog.json") }

// beginOp opens an operation against the database: it takes the
// close-guard shared and fails with ErrDatabaseClosed once Close has
// run. Operations that passed the check before Close are drained —
// Close waits for their endOp — so they never see half-closed engines.
func (db *Database) beginOp() error {
	db.closeMu.RLock()
	if db.closed.Load() {
		db.closeMu.RUnlock()
		return ErrDatabaseClosed
	}
	return nil
}

// endOp closes an operation opened with beginOp.
func (db *Database) endOp() { db.closeMu.RUnlock() }

func (db *Database) loadCatalogContext(ctx context.Context) error {
	data, err := os.ReadFile(db.catalogPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	var cat catalog
	if err := json.Unmarshal(data, &cat); err != nil {
		return fmt.Errorf("core: corrupt catalog: %w", err)
	}
	// Schema changes replay from the commit log: the committed schema
	// epoch is the newest SchemaVer any commit carries, and catalog
	// entries from epochs beyond it belong to changes whose commit never
	// made it to disk — they are rolled back like any torn commit.
	db.epoch = db.graph.MaxSchemaVer()
	for _, ct := range cat.Tables {
		if err := ctx.Err(); err != nil {
			return err
		}
		cols := make([]record.HistoryColumn, len(ct.Columns))
		for i, c := range ct.Columns {
			cols[i] = record.HistoryColumn{
				Col:       record.Column{Name: c.Name, Type: record.Type(c.Type), Size: c.Size},
				AddedIn:   c.AddedIn,
				DroppedIn: c.DroppedIn,
				Default:   c.Default,
			}
		}
		hist, err := record.RestoreHistory(cols)
		if err != nil {
			return fmt.Errorf("core: corrupt catalog for table %q: %w", ct.Name, err)
		}
		hist.Revert(db.epoch)
		if _, err := db.attachTable(ct.Name, hist); err != nil {
			return err
		}
	}
	return nil
}

func (db *Database) saveCatalogLocked() error {
	var cat catalog
	for _, name := range db.order {
		t := db.tables[name]
		ct := catalogTable{Name: name}
		for _, hc := range t.hist.Columns() {
			ct.Columns = append(ct.Columns, catalogColumn{
				Name: hc.Col.Name, Type: uint8(hc.Col.Type), Size: hc.Col.Size,
				AddedIn: hc.AddedIn, DroppedIn: hc.DroppedIn, Default: hc.Default,
			})
		}
		cat.Tables = append(cat.Tables, ct)
	}
	data, err := json.Marshal(&cat)
	if err != nil {
		return err
	}
	return wal.ReplaceFile(db.catalogPath(), data, db.opt.Fsync)
}

func (db *Database) attachTable(name string, hist *record.History) (*Table, error) {
	tdir := filepath.Join(db.dir, "tables", name)
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	env := &Env{Dir: tdir, Schema: hist.VisibleAt(0), Hist: hist, Graph: db.graph, Pool: db.pool, Opt: db.opt}
	eng, err := db.factory(env)
	if err != nil {
		return nil, fmt.Errorf("core: table %q: %w", name, err)
	}
	t := &Table{name: name, hist: hist, engine: eng, db: db}
	db.tables[name] = t
	db.order = append(db.order, name)
	return t, nil
}

// CreateTable adds a relation to the dataset. Tables must be created
// before Init (the init transaction "creates the two tables as well as
// populates them with initial data", Section 2.2.3).
func (db *Database) CreateTable(name string, schema *record.Schema) (*Table, error) {
	if err := db.beginOp(); err != nil {
		return nil, err
	}
	defer db.endOp()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.graph.Initialized() {
		return nil, fmt.Errorf("%w: cannot create tables after init", ErrAlreadyInitialized)
	}
	if name == "" {
		return nil, errors.New("core: empty table name")
	}
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("core: table %q already exists", name)
	}
	t, err := db.attachTable(name, record.NewHistory(schema))
	if err != nil {
		return nil, err
	}
	return t, db.saveCatalogLocked()
}

// Table returns the named relation.
func (db *Database) Table(name string) (*Table, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[name]
	return t, ok
}

// TableByName returns the named relation or an error wrapping
// ErrNoSuchTable.
func (db *Database) TableByName(name string) (*Table, error) {
	t, ok := db.Table(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	return t, nil
}

// Tables returns the dataset's relations in creation order.
func (db *Database) Tables() []*Table {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]*Table, 0, len(db.order))
	for _, n := range db.order {
		out = append(out, db.tables[n])
	}
	return out
}

// Graph exposes the version graph (read-mostly: heads, LCA, ancestry).
func (db *Database) Graph() *vgraph.Graph { return db.graph }

// BranchNamed resolves a branch name or returns an error wrapping
// ErrNoSuchBranch.
func (db *Database) BranchNamed(name string) (*vgraph.Branch, error) {
	b, ok := db.graph.BranchByName(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchBranch, name)
	}
	return b, nil
}

// Init creates the master branch and the initial (empty) version of
// every relation.
func (db *Database) Init(message string) (*vgraph.Branch, *vgraph.Commit, error) {
	if err := db.beginOp(); err != nil {
		return nil, nil, err
	}
	defer db.endOp()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.graph.Initialized() {
		return nil, nil, ErrAlreadyInitialized
	}
	if len(db.tables) == 0 {
		return nil, nil, errors.New("core: init requires at least one table")
	}
	master, c0, err := db.graph.Init(message)
	if err != nil {
		return nil, nil, err
	}
	err = db.applyCommitLocked(c0, func(t *Table) error { return t.engine.Init(master, c0) })
	if err != nil {
		return nil, nil, err
	}
	return master, c0, nil
}

// applyCommitLocked takes a commit the graph has so far created only in
// memory, applies it to every relation and then publishes it: the
// graph's log record is the commit point and is written last, so the
// graph never names a commit an engine lacks. If an engine fails, or
// the record cannot be written, the commit is taken back out of the
// graph — head, commit count and next Seq as before — and whatever the
// engines already logged for it is dropped by the next commit on the
// branch, or by the next open.
func (db *Database) applyCommitLocked(c *vgraph.Commit, apply func(*Table) error) error {
	for _, name := range db.order {
		if err := apply(db.tables[name]); err != nil {
			db.graph.Abort(c)
			return err
		}
	}
	return db.graph.Publish(c)
}

// Branch creates a named branch from any existing commit. The graph
// logs the branch before the engines see it: if they never do, the
// branch is its branch point, which is how they recover it at open.
func (db *Database) Branch(name string, from vgraph.CommitID) (*vgraph.Branch, error) {
	if err := db.beginOp(); err != nil {
		return nil, err
	}
	defer db.endOp()
	db.mu.Lock()
	defer db.mu.Unlock()
	fromCommit, ok := db.graph.Commit(from)
	if !ok {
		return nil, fmt.Errorf("%w: commit %d", ErrNoSuchCommit, from)
	}
	b, err := db.graph.NewBranch(name, from)
	if err != nil {
		return nil, err
	}
	for _, tname := range db.order {
		if err := db.tables[tname].engine.Branch(b, fromCommit); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Commit snapshots the branch's current state across all relations as a
// new version.
func (db *Database) Commit(branch vgraph.BranchID, message string) (*vgraph.Commit, error) {
	if err := db.beginOp(); err != nil {
		return nil, err
	}
	defer db.endOp()
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.graph.Branch(branch); !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNoSuchBranch, branch)
	}
	c, err := db.graph.NewCommit(branch, message)
	if err != nil {
		return nil, err
	}
	if err := db.applyCommitLocked(c, func(t *Table) error { return t.engine.Commit(c) }); err != nil {
		return nil, err
	}
	return c, nil
}

// SchemaChange is one pending schema-evolution operation, applied
// atomically with the commit that carries it.
type SchemaChange struct {
	Table string
	// Add, when non-nil, appends the column with the given default
	// (Default nil = zero value). The column lands after every existing
	// physical column, so records stored earlier stay byte prefixes of
	// the new layout and are never rewritten.
	Add     *record.Column
	Default any
	// Drop, when non-empty, logically drops the named column: it
	// disappears from the schema visible at this and later epochs but
	// keeps its bytes in stored records, and reads at earlier versions
	// still see it.
	Drop string
}

// SchemaEpoch returns the committed schema epoch of the dataset.
func (db *Database) SchemaEpoch() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.epoch
}

// commitSchema is Commit for a transaction carrying schema changes
// (Transact's commit; with none it is Commit): the changes are
// validated and applied to the catalog histories under a new schema
// epoch, the catalog is persisted, and the commit is created stamped
// with the new epoch — from it onward the branch (and every branch that
// later merges it) sees the evolved schema, while reads at earlier
// commits keep resolving the schema as of then. The catalog is
// persisted before the commit is published, so a crash between the two
// rolls the changes back on reopen (the epoch is never referenced by
// any commit) — and so does a commit that fails.
func (db *Database) commitSchema(branch vgraph.BranchID, message string, changes []SchemaChange) (*vgraph.Commit, error) {
	if len(changes) == 0 {
		return db.Commit(branch, message)
	}
	if err := db.beginOp(); err != nil {
		return nil, err
	}
	defer db.endOp()
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.graph.Branch(branch); !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNoSuchBranch, branch)
	}
	// Schema evolution is one linear chain of epochs. A branch may only
	// extend the chain if its head has adopted every prior change
	// (made them itself or merged the branch that did); otherwise a
	// change committed here would silently surface another branch's
	// unmerged columns. Diverged branches must merge first.
	if head := db.headEpoch(branch); head != db.epoch {
		return nil, fmt.Errorf("%w: branch is at schema epoch %d but the dataset is at %d; merge the branch that evolved the schema before changing it again",
			ErrSchemaChange, head, db.epoch)
	}
	newEpoch := db.epoch + 1
	applied := make(map[*record.History]bool)
	rollback := func() {
		for h := range applied {
			h.Revert(db.epoch)
		}
	}
	for _, ch := range changes {
		t, ok := db.tables[ch.Table]
		if !ok {
			rollback()
			return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, ch.Table)
		}
		var err error
		switch {
		case ch.Add != nil && ch.Drop != "":
			err = errors.New("both Add and Drop set")
		case ch.Add != nil:
			err = t.hist.AddColumn(newEpoch, *ch.Add, ch.Default)
		case ch.Drop != "":
			err = t.hist.DropColumn(newEpoch, ch.Drop)
		default:
			err = errors.New("empty schema change")
		}
		if err != nil {
			rollback()
			return nil, fmt.Errorf("%w: %v", ErrSchemaChange, err)
		}
		applied[t.hist] = true
	}
	if err := db.saveCatalogLocked(); err != nil {
		rollback()
		return nil, err
	}
	c, err := db.graph.NewCommitSchema(branch, message, newEpoch)
	if err == nil {
		err = db.applyCommitLocked(c, func(t *Table) error { return t.engine.Commit(c) })
	}
	if err != nil {
		rollback()
		return nil, errors.Join(err, db.saveCatalogLocked())
	}
	db.epoch = newEpoch
	return c, nil
}

// merge merges the head of branch other into branch into across all
// relations, committing the result as a merge version (MergeContext's
// work once it holds the locks). precedenceFirst selects whether into
// (true) or other (false) wins conflicts. Cancellation is checked once,
// before any state changes: a merge that has started runs through every
// relation, because a merge commit that some relations applied and
// others did not is what the commit point exists to rule out.
func (db *Database) merge(ctx context.Context, into, other vgraph.BranchID, message string, kind MergeKind, precedenceFirst bool) (*vgraph.Commit, MergeStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, MergeStats{}, err
	}
	if err := db.beginOp(); err != nil {
		return nil, MergeStats{}, err
	}
	defer db.endOp()
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, b := range []vgraph.BranchID{into, other} {
		if _, ok := db.graph.Branch(b); !ok {
			return nil, MergeStats{}, fmt.Errorf("%w: id %d", ErrNoSuchBranch, b)
		}
	}
	mc, err := db.graph.NewMergeCommit(into, other, message, precedenceFirst)
	if err != nil {
		return nil, MergeStats{}, err
	}
	// The LCA is found once, here, for every relation.
	m, err := NewMerge(db.graph, into, other, mc, kind)
	if err != nil {
		db.graph.Abort(mc)
		return nil, MergeStats{}, err
	}
	if err := db.applyCommitLocked(mc, func(t *Table) error { return t.engine.Merge(m) }); err != nil {
		return nil, MergeStats{}, err
	}
	return mc, m.Stats, nil
}

// Stats aggregates storage statistics across relations.
func (db *Database) Stats() (Stats, error) {
	var agg Stats
	if err := db.beginOp(); err != nil {
		return agg, err
	}
	defer db.endOp()
	for _, t := range db.Tables() {
		st, err := t.engine.Stats()
		if err != nil {
			return agg, err
		}
		agg.Records += st.Records
		agg.DataBytes += st.DataBytes
		agg.IndexBytes += st.IndexBytes
		agg.IndexEntries += st.IndexEntries
		agg.CommitBytes += st.CommitBytes
		agg.SegmentCount += st.SegmentCount
		agg.LiveRecords += st.LiveRecords
	}
	agg.PoolBytes = db.pool.ResidentBytes()
	return agg, nil
}

// Flush writes all buffered state to disk.
func (db *Database) Flush() error {
	if err := db.beginOp(); err != nil {
		return err
	}
	defer db.endOp()
	for _, t := range db.Tables() {
		if err := t.engine.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// addSession registers an admitted operation for the drain
// bookkeeping; it fails with ErrDatabaseClosed once the database is
// closed or a CloseContext drain has begun.
func (db *Database) addSession() error {
	db.sessMu.Lock()
	defer db.sessMu.Unlock()
	if !db.Admitting() {
		return ErrDatabaseClosed
	}
	db.sessions++
	return nil
}

// dropSession unregisters an admitted operation, waking a pending
// CloseContext drain when the last one leaves.
func (db *Database) dropSession() {
	db.sessMu.Lock()
	db.sessions--
	if db.sessions == 0 && db.sessWait != nil {
		close(db.sessWait)
		db.sessWait = nil
	}
	db.sessMu.Unlock()
}

// ActiveSessions reports the number of admitted transactions, merges
// and branch-from-head operations in flight (the server's
// active-session gauge).
func (db *Database) ActiveSessions() int {
	db.sessMu.Lock()
	defer db.sessMu.Unlock()
	return db.sessions
}

// Admitting reports whether the admission gate still lets new
// transactions in: false once Close or a CloseContext drain has begun.
func (db *Database) Admitting() bool {
	return !db.closed.Load() && !db.draining.Load()
}

// CloseContext is a graceful Close: it stops admitting new transactions
// (late arrivals get ErrDatabaseClosed), waits for the active ones to
// finish until ctx expires, then closes the database. In-flight scans
// that passed the close guard always run to completion either way; a
// drain timeout is reported as ctx.Err() after the close finishes.
func (db *Database) CloseContext(ctx context.Context) error {
	db.draining.Store(true)
	db.sessMu.Lock()
	var wait chan struct{}
	if db.sessions > 0 {
		if db.sessWait == nil {
			db.sessWait = make(chan struct{})
		}
		wait = db.sessWait
	}
	db.sessMu.Unlock()
	var werr error
	if wait != nil {
		select {
		case <-wait:
		case <-ctx.Done():
			werr = ctx.Err()
		}
	}
	if err := db.Close(); err != nil {
		return err
	}
	return werr
}

// Close flushes and closes every engine and checkpoints the version
// graph. Close is idempotent: calls after the first are no-ops
// returning nil.
func (db *Database) Close() error {
	if !db.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Drain: operations that passed beginOp before the flag flipped
	// still hold the close-guard shared; wait for them to finish.
	db.closeMu.Lock()
	db.closeMu.Unlock()
	var first error
	for _, t := range db.Tables() {
		if err := t.engine.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := db.graph.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table's current visible schema (the newest schema
// epoch). Historical versions resolve their own schema; see SchemaAt.
func (t *Table) Schema() *record.Schema { return t.hist.VisibleLatest() }

// SchemaAt returns the schema visible as of a schema epoch (the value
// stamped on a commit's SchemaVer): what a read of that commit sees.
func (t *Table) SchemaAt(epoch int) *record.Schema { return t.hist.VisibleAt(epoch) }

// History exposes the table's versioned schema history.
func (t *Table) History() *record.History { return t.hist }

// Engine exposes the underlying storage engine (the engine conformance
// suite drives it directly).
func (t *Table) Engine() Engine { return t.engine }

// headEpoch returns the schema epoch of the branch's head commit — the
// schema version writes to that branch encode under.
func (db *Database) headEpoch(branch vgraph.BranchID) int {
	b, ok := db.graph.Branch(branch)
	if !ok {
		return 0
	}
	c, ok := db.graph.Commit(b.Head)
	if !ok {
		return 0
	}
	return c.SchemaVer
}

// BranchEpoch returns the schema epoch at a branch's head — the
// version head reads of that branch resolve the schema at.
func (t *Table) BranchEpoch(branch vgraph.BranchID) int { return t.db.headEpoch(branch) }

// MaxBranchEpoch returns the newest head schema epoch among the given
// branches — the version multi-branch scans and diffs emit under
// (rows from branches still on older versions widen with defaults).
func (t *Table) MaxBranchEpoch(branches []vgraph.BranchID) int {
	max := 0
	for _, b := range branches {
		if e := t.db.headEpoch(b); e > max {
			max = e
		}
	}
	return max
}

// SegmentStats returns per-segment summaries — row counts, schema
// version ids and zone maps. This is what the CLI's `stats <table>`
// renders.
func (t *Table) SegmentStats() []store.SegmentStat { return t.engine.SegmentStats() }

// checkWrite validates that a record's schema may be written to the
// branch (every column visible at the branch head's schema epoch),
// classifying failures: columns a later epoch introduces fail with
// ErrColumnNotYetAdded, anything else with ErrSchemaChange.
func (t *Table) checkWrite(branch vgraph.BranchID, s *record.Schema) error {
	if t.hist.Epoch() == 0 {
		return nil // single-version table: nothing to resolve
	}
	epoch := t.db.headEpoch(branch)
	err := t.hist.CheckWritable(s, epoch)
	if err == nil {
		return nil
	}
	vis := t.hist.VisibleAt(epoch)
	for i := 0; i < s.NumColumns(); i++ {
		name := s.Column(i).Name
		if vis.ColumnIndex(name) >= 0 {
			continue
		}
		if addedIn, _, ok := t.hist.ColumnEpochs(name); ok && addedIn > epoch {
			return fmt.Errorf("%w: %q (added at schema epoch %d, branch head is at %d)",
				ErrColumnNotYetAdded, name, addedIn, epoch)
		}
	}
	return fmt.Errorf("%w: %v", ErrSchemaChange, err)
}

// Insert upserts a record into a branch head: a batch of one.
func (t *Table) Insert(branch vgraph.BranchID, rec *record.Record) error {
	return t.InsertBatch(branch, []*record.Record{rec})
}

// Delete removes a key from a branch head.
func (t *Table) Delete(branch vgraph.BranchID, pk int64) error {
	if err := t.db.beginOp(); err != nil {
		return err
	}
	defer t.db.endOp()
	return t.engine.Delete(branch, pk)
}

// InsertBatch upserts a batch of records into a branch head in one
// engine call, amortizing the engine's per-record locking. On error, a
// prefix of the batch may have been applied — like single Inserts,
// batches become atomic only at commit.
func (t *Table) InsertBatch(branch vgraph.BranchID, recs []*record.Record) error {
	if err := t.db.beginOp(); err != nil {
		return err
	}
	defer t.db.endOp()
	for _, rec := range recs {
		if err := t.checkWrite(branch, rec.Schema()); err != nil {
			return err
		}
	}
	return t.engine.InsertBatch(branch, recs)
}
