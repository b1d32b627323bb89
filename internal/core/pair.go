package core

import (
	"context"
	"fmt"

	"decibel/internal/record"
)

// A version pair is the read a primary-key join of two versions of one
// table (Query 3) needs. Versions share record copies: most of the
// slots one version holds the other holds too, and such a slot is the
// key's only copy in both. So the pair takes one liveness snapshot of
// both versions (one Engine.Live call) and walks it twice: first the
// slots the left version holds, each read through the left spec and,
// when the right version holds the slot too, through the right spec on
// the same buffer; then the slots only the right version holds,
// through the right spec. A record is read once however many versions
// hold it, and the two walks see one state of both versions, however
// their heads move meanwhile.

// PairLeg is one version of a pair: the version, the spec its rows pass
// and, possibly nil, the plane pre-filter of that spec's predicate
// (UnitRunner.UsePlanes).
type PairLeg struct {
	V      Version
	Spec   *ScanSpec
	Planes PlaneSource
}

// PairFunc receives each row of a version pair: l and r both set for a
// slot both versions hold that passes both specs, only l for a slot
// only the left version holds, only r for one only the right holds.
// The records are valid only until fn returns, as a scan's are.
type PairFunc func(l, r *record.Record)

// PairContext reads the two legs' versions from one liveness snapshot,
// in the engine's scan order: the left version's slots first, then the
// slots only the right one holds. Both specs must address one schema
// epoch, so that one stored buffer, converted once, is read by both.
func (t *Table) PairContext(ctx context.Context, legs [2]PairLeg, fn PairFunc) error {
	if legs[0].Spec.epoch != legs[1].Spec.epoch {
		return fmt.Errorf("core: a version pair reads both versions at one schema epoch, not %d and %d",
			legs[0].Spec.epoch, legs[1].Spec.epoch)
	}
	if err := t.db.beginOp(); err != nil {
		return err
	}
	defer t.db.endOp()
	var left, right []ScanUnit
	err := t.engine.Live([]Version{legs[0].V, legs[1].V}, func(spaces []SlotSpace) error {
		left, right = pairUnits(spaces)
		return nil
	})
	if err != nil {
		return err
	}
	defer unpin(left)
	defer unpin(right)

	// The left walk reads whole rows, so a row the right version holds
	// too is read through its spec from the same buffer; the left
	// projection is applied here rather than in the walk.
	lspec, rspec := legs[0].Spec, legs[1].Spec
	var ferr error
	err = runSequential(ctx, left, lspec.whole(), legs[0].Planes, func(rec *record.Record, aux UnitAux) bool {
		l, r := rec, (*record.Record)(nil)
		if lspec.out != nil {
			if l, ferr = lspec.project(rec.Bytes()); ferr != nil {
				return false
			}
		}
		if aux.InA {
			if r, ferr = rspec.Apply(rec.Bytes()); ferr != nil {
				return false
			}
			if r == nil {
				return true // the right version's predicate rejects its copy
			}
		}
		fn(l, r)
		return true
	})
	if err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	err = runSequential(ctx, right, rspec, legs[1].Planes,
		func(rec *record.Record, _ UnitAux) bool { fn(nil, rec); return true })
	if err != nil {
		return err
	}
	return ctx.Err()
}

// pairUnits builds a pair's two walks from one snapshot of its spaces:
// left walks the left version's slots with the right version's as its
// side, so a row knows whether the right version holds it too; right
// walks the slots the right version holds and the left does not.
func pairUnits(spaces []SlotSpace) (left, right []ScanUnit) {
	for i := range spaces {
		sp := &spaces[i]
		l, r := sp.Live[0], sp.Live[1]
		if l != nil && l.Any() {
			u := ScanUnit{live: sp.keep(l), side: empty}
			if r != nil {
				u.side = sp.keep(r)
			}
			left = appendUnits(left, u, sp.Segs)
		}
		if r == nil {
			continue
		}
		only := r.Clone()
		if l != nil {
			only.AndNot(l)
		}
		if only.Any() {
			right = appendUnits(right, ScanUnit{live: only}, sp.Segs)
		}
	}
	return left, right
}
