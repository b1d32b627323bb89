package core

import (
	"context"
	"expvar"

	"decibel/internal/bitmap"
	"decibel/internal/record"
	"decibel/internal/store"
	"decibel/internal/vgraph"
)

// The read path. An engine answers a scan by saying, under its own
// lock, which slots of which slot space the requested versions hold
// (Engine.Live) — the one thing the three schemes differ in — and
// Partition turns that into one ScanUnit per segment, in scan order.
// Everything above that is here and shared: the per-record body
// (layout conversion, predicate, projection, annotation, callback), the
// loop that runs the units in order on the calling goroutine,
// cancellation, and the point lookup that replaces the walk when a
// predicate pins the primary key.

// ScanKind selects the scan shape a ScanRequest partitions: which
// versions it reads and how their liveness combines.
type ScanKind uint8

const (
	// ScanKindBranch is a branch-head scan (Query 1).
	ScanKindBranch ScanKind = iota
	// ScanKindCommit is a historical commit scan.
	ScanKindCommit
	// ScanKindMulti is a multi-branch scan with membership (Query 4).
	ScanKindMulti
	// ScanKindDiff is a symmetric branch diff: the records live in
	// exactly one of A and B, each marked with its side.
	ScanKindDiff
	// ScanKindPositiveDiff is the positive diff of Query 2: the records
	// live in A but not in B.
	ScanKindPositiveDiff
)

// ScanRequest names one scan for partitioning: the shape plus the
// shape's addressing fields (only the fields of the request's Kind are
// consulted).
type ScanRequest struct {
	Kind     ScanKind
	Branch   vgraph.BranchID   // ScanKindBranch
	Commit   *vgraph.Commit    // ScanKindCommit
	Branches []vgraph.BranchID // ScanKindMulti
	A, B     vgraph.BranchID   // ScanKindDiff, ScanKindPositiveDiff
}

// UnitAux carries the per-record annotations of the non-plain callback
// shapes: InA for symmetric diff scans, Member for multi-branch scans.
// Member is the runner's scratch — like the record, it must be Cloned
// to be retained across calls.
type UnitAux struct {
	// InA says the unit's side bitmap holds the row's slot: a symmetric
	// diff's A's, or in a version pair's first walk the second version's.
	InA    bool
	Member *bitmap.Bitmap
}

// UnitFunc receives each record one scan unit emits. The record (and
// aux.Member) may alias a buffer-pool frame or runner scratch: its bytes
// are valid only until fn returns, after which the frame may be reused
// for another page. Clone it to keep it. Returning false stops the
// scan.
type UnitFunc func(rec *record.Record, aux UnitAux) bool

// ScanUnit is one independently runnable slice of a partitioned scan:
// the walk of one segment under a liveness bitmap snapshotted at
// partition time (see Partition). It may be walked at most once. Frozen
// units touch only immutable storage, so their zone maps describe every
// row the walk can visit; non-frozen units are the mutable branch heads,
// whose zone maps an executor may not trust to skip or stop early.
type ScanUnit struct {
	Frozen bool
	// Zone and PhysCols describe the unit's segment: its zone map (nil
	// when the engine has none for this unit) and the physical column
	// count its records are laid out under. The driver prunes and
	// converts with them; executors may also use them to reorder or
	// early-stop unit visits when they can prove the output unchanged.
	Zone     *store.ZoneMap
	PhysCols int

	seg  SpaceSeg
	live *bitmap.Bitmap   // the slots the walk visits
	side *bitmap.Bitmap   // diff: A's liveness, which a row's InA reads
	cols []*bitmap.Bitmap // multi-branch: each version's liveness (nil: none)
}

// UnitRunner is the one per-record body every scan shape of every
// engine shares: convert the stored buffer to the spec's layout,
// evaluate predicate and projection, annotate, deliver. One runner
// serves all the units of a scan, one Run at a time, in whatever order
// its driver chooses.
type UnitRunner struct {
	done <-chan struct{} // the scan context's Done; nil when it can never be canceled
	spec *ScanSpec
	fn   UnitFunc
	walk slotWalker // visits the body, bound once
	// planes, when set, yields the predicate's plane program, built into
	// walk.planes when the scan first meets a dcz page (planes.go).
	planes PlaneSource

	prep      func(buf []byte) []byte // current unit's conversion
	unit      *ScanUnit               // current unit
	member    *bitmap.Bitmap          // multi-branch membership scratch
	err       error                   // Apply failure
	annotated bool                    // the current unit's rows carry a side or a membership
	stop      bool
}

// NewUnitRunner binds the body to one scan: every live record that
// satisfies the spec goes to fn, until fn returns false or ctx is
// canceled (polled once per delivered record, without a lock: ctx.Err
// takes the context's mutex; contexts that can never be canceled are
// not consulted).
func NewUnitRunner(ctx context.Context, spec *ScanSpec, fn UnitFunc) *UnitRunner {
	r := &UnitRunner{spec: spec, fn: fn, done: ctx.Done()}
	// The body is a closure literal rather than a method value: it runs
	// once per walked slot, and a method value would add a call to each.
	r.walk.bind(func(slot int64, buf []byte) bool {
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
		if r.annotated {
			aux = r.annotate(slot)
		}
		if r.done != nil {
			select {
			case <-r.done:
				r.stop = true
				return false
			default:
			}
		}
		if !r.fn(rec, aux) {
			r.stop = true
			return false
		}
		return true
	})
	return r
}

// UsePlanes hands the runner the plane pre-filter of the spec's
// predicate: the dcz pages of units stored in the spec's target layout
// then visit only the rows their planes do not rule out. src must
// describe the same predicate as the spec's, which still decides every
// row visited.
func (r *UnitRunner) UsePlanes(src PlaneSource) { r.planes = src }

// Run executes one unit: zone-map pruning, layout prep, then the walk.
func (r *UnitRunner) Run(u *ScanUnit) error {
	if r.spec.SkipSegment(u.Zone, u.PhysCols) {
		return nil
	}
	prep, err := r.spec.Prep(u.PhysCols)
	if err != nil {
		return err
	}
	r.prep, r.unit, r.annotated = prep, u, u.side != nil || u.cols != nil
	// A converted layout moves the columns the planes are matched at.
	r.walk.usePlanes = r.planes != nil && prep == nil && u.seg.Encoding == store.EncDCZ
	if r.walk.usePlanes && r.walk.planes == nil {
		nodes := r.planes.PlaneNodes()
		if nodes == nil {
			r.planes, r.walk.usePlanes = nil, false
		} else {
			r.walk.planes = newPlaneProg(nodes, r.spec.schema.RecordSize())
		}
	}
	if u.cols != nil && (r.member == nil || r.member.Len() != len(u.cols)) {
		r.member = bitmap.New(len(u.cols))
	}
	if err := r.walk.walkSlots(u.seg, u.live); err != nil {
		return err
	}
	return r.err
}

// annotate derives a row's annotation from its slot: its side in a
// diff, its membership in a multi-branch scan. It stays out of the body
// above, which runs for every row of every shape.
func (r *UnitRunner) annotate(slot int64) UnitAux {
	if u := r.unit; u.side != nil {
		return UnitAux{InA: u.side.Get(int(slot))}
	}
	r.member.Gather(r.unit.cols, int(slot))
	return UnitAux{Member: r.member}
}

// RunUnitsSequential drives a partition on the calling goroutine in
// unit order, sharing one spec, until fn returns false.
func RunUnitsSequential(units []ScanUnit, spec *ScanSpec, fn UnitFunc) error {
	return runSequential(context.Background(), units, spec, nil, fn)
}

func runSequential(ctx context.Context, units []ScanUnit, spec *ScanSpec, planes PlaneSource, fn UnitFunc) error {
	r := NewUnitRunner(ctx, spec, fn)
	r.UsePlanes(planes)
	for i := range units {
		if err := r.Run(&units[i]); err != nil || r.stop {
			return err
		}
	}
	return nil
}

// pointLookups counts single-version reads served by the engine's
// LookupPK instead of a segment scan.
var pointLookups = expvar.NewInt("decibel.point_lookups")

// partition opens a database operation and partitions the request —
// the one place a scan reaches the engine. On success the caller must
// unpin the units (so a concurrent compaction can retire replaced
// files) and then end the operation, once the last unit has finished.
func (t *Table) partition(req ScanRequest) ([]ScanUnit, error) {
	if err := t.db.beginOp(); err != nil {
		return nil, err
	}
	units, err := scanUnits(t.engine, req)
	if err != nil {
		t.db.endOp()
		return nil, err
	}
	return units, nil
}

// PartitionUnits exposes the scan partition to executors that
// choose their own visit order — the ordered visitor in internal/query
// drives units in zone-sorted order with top-k early stop. release must
// be called exactly once after the last unit finishes: it unpins the
// partition's segments and ends the database operation the call began.
// ok is always true (every engine partitions); it is kept for callers
// written when partitioning was optional.
func (t *Table) PartitionUnits(req ScanRequest) (units []ScanUnit, release func(), ok bool, err error) {
	if units, err = t.partition(req); err != nil {
		return nil, nil, true, err
	}
	return units, func() { unpin(units); t.db.endOp() }, true, nil
}

// ScanUnitsContext is the scan driver: it partitions the request once
// and runs the units in order on the calling goroutine, straight into
// fn. planes, which may be nil, is the plane pre-filter of the spec's
// predicate (UnitRunner.UsePlanes). The scan stops within one delivered
// record of ctx being canceled and returns ctx.Err().
func (t *Table) ScanUnitsContext(ctx context.Context, req ScanRequest, spec *ScanSpec, planes PlaneSource, fn UnitFunc) error {
	units, err := t.partition(req)
	if err != nil {
		return err
	}
	defer t.db.endOp()
	defer unpin(units)
	if err := runSequential(ctx, units, spec, planes, fn); err != nil {
		return err
	}
	return ctx.Err()
}

// LookupPKContext serves a read of one version — a branch head or a
// commit — whose predicate pins the primary key to one value, through
// the engine's LookupPK instead of a segment walk. The spec's predicate
// and projection still run on the looked-up record — the lookup only
// replaces the walk, never the filter — so the result is exactly that
// of the scan it stands in for. fn's record is valid only until fn
// returns, as a scan's is: it may alias the spec's scratch, which the
// next read through the spec overwrites.
func (t *Table) LookupPKContext(ctx context.Context, v Version, pk int64, spec *ScanSpec, fn ScanFunc) error {
	if err := t.db.beginOp(); err != nil {
		return err
	}
	defer t.db.endOp()
	if err := ctx.Err(); err != nil {
		return err
	}
	buf, physCols, err := t.engine.LookupPK(v, pk)
	if err != nil {
		return err
	}
	pointLookups.Add(1)
	if buf == nil {
		return ctx.Err() // the key is not live in this version
	}
	prep, err := spec.Prep(physCols)
	if err != nil {
		return err
	}
	if prep != nil {
		buf = prep(buf)
	}
	rec, err := spec.Apply(buf)
	if err != nil {
		return err
	}
	if rec != nil {
		fn(rec)
	}
	return ctx.Err()
}
