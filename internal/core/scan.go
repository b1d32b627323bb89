package core

import (
	"context"
	"expvar"
	"runtime"
	"sync"
	"sync/atomic"

	"decibel/internal/bitmap"
	"decibel/internal/record"
	"decibel/internal/store"
	"decibel/internal/vgraph"
)

// The read path. An engine answers a scan by partitioning it
// (Engine.PartitionScan): it snapshots, under its own lock, whatever
// maps the requested versions to stored record copies — the one thing
// the three schemes differ in — and returns one ScanUnit per segment,
// in scan order. Everything above that is here and shared: the
// per-record body (layout conversion, predicate, projection,
// annotation, callback), the sequential loop over units, the bounded
// worker pool that fans frozen units out, cancellation, and the point
// lookup that replaces the walk when a predicate pins the primary key.

// ScanKind selects the scan shape a ScanRequest partitions.
type ScanKind uint8

const (
	// ScanKindBranch is a branch-head scan (Query 1).
	ScanKindBranch ScanKind = iota
	// ScanKindCommit is a historical commit scan.
	ScanKindCommit
	// ScanKindMulti is a multi-branch scan with membership (Query 4).
	ScanKindMulti
	// ScanKindDiff is a symmetric branch diff (Query 2).
	ScanKindDiff
)

// ScanRequest names one scan for partitioning: the shape plus the
// shape's addressing fields (only the fields of the request's Kind are
// consulted).
type ScanRequest struct {
	Kind     ScanKind
	Branch   vgraph.BranchID   // ScanKindBranch
	Commit   *vgraph.Commit    // ScanKindCommit
	Branches []vgraph.BranchID // ScanKindMulti
	A, B     vgraph.BranchID   // ScanKindDiff
}

// UnitAux carries the per-record annotations of the non-plain callback
// shapes: InA for diff scans, Member for multi-branch scans. Member is
// per-unit scratch — like the record, it must be Cloned to be retained
// across calls.
type UnitAux struct {
	InA    bool
	Member *bitmap.Bitmap
}

// UnitFunc receives each record one scan unit emits. The record (and
// aux.Member) may alias engine buffers or per-unit scratch and must be
// Cloned to be retained. Returning false stops the scan (in pool mode,
// that unit — not its siblings).
type UnitFunc func(rec *record.Record, aux UnitAux) bool

// ScanUnit is one independently runnable slice of a partitioned scan —
// in practice one segment's portion. It may be walked at most once. Frozen
// units touch only immutable storage and may run on any goroutine, each
// with its own ScanSpec clone; non-frozen units (the mutable branch
// heads) must run on the goroutine that partitioned the scan,
// preserving the engine's snapshot rules.
type ScanUnit struct {
	Frozen bool
	// Zone and PhysCols describe the unit's segment: its zone map (nil
	// when the engine has none for this unit) and the physical column
	// count its records are laid out under. The driver prunes and
	// converts with them; executors may also use them to reorder or
	// early-stop unit visits when they can prove the output unchanged.
	Zone     *store.ZoneMap
	PhysCols int

	// Walk hands visit the stored buffer of every slot the unit's
	// liveness snapshot marks live, in slot order, until visit returns
	// false. The spec is offered only for pruning below the segment
	// (page zones); Walk never evaluates it per record.
	Walk func(spec *ScanSpec, visit func(slot int64, buf []byte) bool) error
	// Aux derives a record's annotation — its diff side or its branch
	// membership — from its slot; nil for the plain shapes. Liveness is
	// the walk's alone: every slot Walk visits is live.
	Aux func(slot int64) UnitAux
}

// Pins tracks the segments a partition's units read: each is pinned
// under the engine lock at partition time, and Release hands the pins
// back once the scan's units have all finished, letting a concurrent
// compaction retire replaced files only after every in-flight reader
// drains.
type Pins struct {
	pinned []*store.Segment
}

// Release unpins every segment Unit pinned.
func (p *Pins) Release() {
	for _, sg := range p.pinned {
		sg.Unpin()
	}
}

// Unit pins one segment and builds its scan unit: a live-page walk
// visiting only the slots set in bm. bm is a snapshot nobody mutates
// once the engine lock drops, so units on pool goroutines may share it.
func (p *Pins) Unit(s *store.Segment, frozen bool, bm *bitmap.Bitmap, aux func(slot int64) UnitAux) ScanUnit {
	s.Pin()
	p.pinned = append(p.pinned, s)
	return ScanUnit{
		Frozen:   frozen,
		Zone:     s.Zone(),
		PhysCols: s.Cols,
		Aux:      aux,
		Walk: func(_ *ScanSpec, visit func(slot int64, buf []byte) bool) error {
			return s.File.ScanLive(bm, func(slot int64, buf []byte) bool {
				return !bm.Get(int(slot)) || visit(slot, buf)
			})
		},
	}
}

// The two combine rules every engine's multi-version shapes share: a
// diff unit walks the XOR of the two sides' liveness and reads its side
// from A's, and a multi-branch unit walks the OR of the k requested
// versions' liveness and reads each row's membership from all k.

// DiffAux annotates a diff unit's slots: a slot is on side A iff colA,
// a snapshot nobody mutates, has it.
func DiffAux(colA *bitmap.Bitmap) func(slot int64) UnitAux {
	return func(slot int64) UnitAux { return UnitAux{InA: colA.Get(int(slot))} }
}

// MemberAux annotates a multi-branch unit's slots: bit i of a slot's
// membership is set iff cols[i] (nil: no live slot there) has it. The
// membership bitmap is scratch owned by the one unit the returned func
// annotates, so each unit needs its own MemberAux.
func MemberAux(cols []*bitmap.Bitmap) func(slot int64) UnitAux {
	member := bitmap.New(len(cols))
	return func(slot int64) UnitAux {
		member.Gather(cols, int(slot))
		return UnitAux{Member: member}
	}
}

// UnitRunner is the one per-record body every scan shape of every
// engine shares: convert the stored buffer to the spec's layout,
// evaluate predicate and projection, annotate, deliver. One runner
// serves all the units of a scan that run on one goroutine, one Run at a
// time, in whatever order its driver chooses.
type UnitRunner struct {
	ctx   context.Context // nil when the scan's context can never be canceled
	spec  *ScanSpec
	fn    UnitFunc
	visit func(slot int64, buf []byte) bool // the body, bound once

	prep func(buf []byte) []byte  // current unit's conversion
	aux  func(slot int64) UnitAux // current unit's annotation
	err  error                    // Apply failure
	stop bool
}

// NewUnitRunner binds the body to one scan: every live record that
// satisfies the spec goes to fn, until fn returns false or ctx is
// canceled (checked once per delivered record; contexts that can never
// be canceled are not consulted).
func NewUnitRunner(ctx context.Context, spec *ScanSpec, fn UnitFunc) *UnitRunner {
	r := &UnitRunner{spec: spec, fn: fn}
	if ctx.Done() != nil {
		r.ctx = ctx
	}
	// The body is a closure literal rather than a method value: it runs
	// once per walked slot, and a method value would add a call to each.
	r.visit = func(slot int64, buf []byte) bool {
		if r.prep != nil {
			buf = r.prep(buf)
		}
		rec, err := r.spec.Apply(buf)
		if err != nil {
			r.err = err
			return false
		}
		if rec == nil {
			return true
		}
		var aux UnitAux
		if r.aux != nil {
			aux = r.aux(slot)
		}
		if (r.ctx != nil && r.ctx.Err() != nil) || !r.fn(rec, aux) {
			r.stop = true
			return false
		}
		return true
	}
	return r
}

// Run executes one unit: zone-map pruning, layout prep, then the walk.
func (r *UnitRunner) Run(u *ScanUnit) error {
	if r.spec.SkipSegment(u.Zone, u.PhysCols) {
		return nil
	}
	prep, err := r.spec.Prep(u.PhysCols)
	if err != nil {
		return err
	}
	r.prep, r.aux = prep, u.Aux
	if err := u.Walk(r.spec, r.visit); err != nil {
		return err
	}
	return r.err
}

// RunUnitsSequential drives a partition on the calling goroutine in
// unit order, sharing one spec, until fn returns false.
func RunUnitsSequential(units []ScanUnit, spec *ScanSpec, fn UnitFunc) error {
	return runSequential(context.Background(), units, spec, fn)
}

func runSequential(ctx context.Context, units []ScanUnit, spec *ScanSpec, fn UnitFunc) error {
	r := NewUnitRunner(ctx, spec, fn)
	for i := range units {
		if err := r.Run(&units[i]); err != nil || r.stop {
			return err
		}
	}
	return nil
}

// UnitSink buffers one unit's output in pool mode. Fn receives the
// unit's records — from a pool goroutine for frozen units — and Flush
// delivers the buffered output on the caller's goroutine once every
// unit has joined; sinks are flushed in unit index order, and a Flush
// returning false stops the remaining flushes (the scan's consumer
// stopped).
type UnitSink struct {
	Fn    UnitFunc
	Flush func() bool
}

// Parallel-scan counters: how many scans ran on the pool and how many
// frozen units its goroutines executed (expvar
// "decibel.parallel_scans"/"decibel.scan_workers"). The equivalence
// harness asserts these move, so a silently bypassed pool cannot pass.
// pointLookups counts single-version reads served by the engine's
// LookupPK instead of a segment scan ("decibel.point_lookups").
var (
	parallelScans   atomic.Int64
	parallelWorkers atomic.Int64
	pointLookups    atomic.Int64
)

func init() {
	expvar.Publish("decibel.parallel_scans", expvar.Func(func() any { return parallelScans.Load() }))
	expvar.Publish("decibel.scan_workers", expvar.Func(func() any { return parallelWorkers.Load() }))
	expvar.Publish("decibel.point_lookups", expvar.Func(func() any { return pointLookups.Load() }))
}

// ParallelScanCounters returns the cumulative pool counters: scans
// driven through it and frozen units run on pool goroutines.
func ParallelScanCounters() (scans, workers int64) {
	return parallelScans.Load(), parallelWorkers.Load()
}

// CountPointLookups returns the number of reads served via a
// primary-key point lookup.
func CountPointLookups() int64 { return pointLookups.Load() }

// resolveScanWorkers picks the scan pool size: Options.ScanWorkers,
// else GOMAXPROCS. A size of 1 disables the pool.
func resolveScanWorkers(opt Options) int {
	n := opt.ScanWorkers
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// ScanWorkers returns the database's scan pool size (1 = parallel
// scans disabled).
func (db *Database) ScanWorkers() int { return db.scanWorkers }

// partition opens a database operation and asks the engine for the
// request's units — the one place a scan reaches the engine. On success
// the caller must call release (unpinning the partition's segments, so
// a concurrent compaction can retire replaced files) and then endOp,
// once the last unit has finished.
func (t *Table) partition(req ScanRequest) (units []ScanUnit, release func(), err error) {
	if err := t.db.beginOp(); err != nil {
		return nil, nil, err
	}
	units, release, err = t.engine.PartitionScan(req)
	if err != nil {
		t.db.endOp()
		return nil, nil, err
	}
	return units, release, nil
}

// PartitionUnits exposes the engine's scan partition to executors that
// choose their own visit order — the ordered visitor in internal/query
// drives units in zone-sorted order with top-k early stop. release must
// be called exactly once after the last unit finishes: it unpins the
// partition's segments and ends the database operation the call began.
// ok is always true (every engine partitions); it is kept for callers
// written when partitioning was optional.
func (t *Table) PartitionUnits(req ScanRequest) (units []ScanUnit, release func(), ok bool, err error) {
	units, rel, err := t.partition(req)
	if err != nil {
		return nil, nil, true, err
	}
	return units, func() { rel(); t.db.endOp() }, true, nil
}

// ScanUnitsContext is the scan driver: it partitions the request once
// and runs the units. With at least two frozen units, a pool larger
// than one and a sink factory, frozen units fan out on the database's
// scan pool — each with its own spec clone and sink — while the mutable
// heads run on the calling goroutine; sinks are then flushed in unit
// order, making the stream identical to the sequential one. Otherwise
// (sink nil pins this) the units run in order on the calling goroutine
// straight into fn. Either way the scan stops within one delivered
// record of ctx being canceled and returns ctx.Err(); the first unit
// error cancels its siblings.
func (t *Table) ScanUnitsContext(ctx context.Context, req ScanRequest, spec *ScanSpec, fn UnitFunc, sink func(unit, total int) UnitSink) error {
	units, release, err := t.partition(req)
	if err != nil {
		return err
	}
	defer t.db.endOp()
	defer release()
	if sink != nil && t.db.scanWorkers > 1 && frozenUnits(units) >= 2 {
		err = t.db.runPool(ctx, spec, units, sink)
	} else {
		err = runSequential(ctx, units, spec, fn)
	}
	if err != nil {
		return err
	}
	return ctx.Err()
}

func frozenUnits(units []ScanUnit) int {
	n := 0
	for i := range units {
		if units[i].Frozen {
			n++
		}
	}
	return n
}

// runPool executes a partition on the scan pool: frozen units on pool
// goroutines, mutable ones inline, per-unit sinks flushed in order after
// the join.
func (db *Database) runPool(ctx context.Context, spec *ScanSpec, units []ScanUnit, sink func(unit, total int) UnitSink) error {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	n := len(units)
	sinks := make([]UnitSink, n)
	for i := range units {
		sinks[i] = sink(i, n)
	}
	parallelScans.Add(1)

	errs := make([]error, n)
	one := func(i int) {
		if errs[i] = NewUnitRunner(cctx, spec.Clone(), sinks[i].Fn).Run(&units[i]); errs[i] != nil {
			cancel()
		}
	}
	var wg sync.WaitGroup
	for i := range units {
		if !units[i].Frozen {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			db.scanSem <- struct{}{}
			defer func() { <-db.scanSem }()
			if cctx.Err() != nil {
				return
			}
			parallelWorkers.Add(1)
			one(i)
		}(i)
	}
	for i := range units {
		if units[i].Frozen {
			continue
		}
		if cctx.Err() != nil {
			break
		}
		one(i)
	}
	wg.Wait()

	// Surface the error of the earliest failing unit — the one the
	// sequential scan would have hit first.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for i := range sinks {
		if !sinks[i].Flush() {
			return nil
		}
	}
	return nil
}

// LookupPKContext serves a single-version read — a branch head or a
// commit, as req addresses it — whose predicate pins the primary key to
// one value, through the engine's LookupPK instead of a segment walk.
// The spec's predicate and projection still run on the looked-up
// record — the lookup only replaces the walk, never the filter — so the
// result is exactly that of the scan it stands in for. served=false
// (nothing emitted) means the engine cannot answer without a scan and
// the caller must scan.
func (t *Table) LookupPKContext(ctx context.Context, req ScanRequest, pk int64, spec *ScanSpec, fn ScanFunc) (served bool, err error) {
	if err := t.db.beginOp(); err != nil {
		return false, err
	}
	defer t.db.endOp()
	if err := ctx.Err(); err != nil {
		return false, err
	}
	buf, physCols, ok, err := t.engine.LookupPK(req, pk)
	if err != nil || !ok {
		return false, err
	}
	pointLookups.Add(1)
	if buf == nil {
		return true, ctx.Err() // the key is not live in this version
	}
	prep, err := spec.Prep(physCols)
	if err != nil {
		return false, err
	}
	if prep != nil {
		buf = prep(buf)
	}
	rec, err := spec.Apply(buf)
	if err != nil {
		return false, err
	}
	if rec != nil {
		fn(rec)
	}
	return true, ctx.Err()
}
