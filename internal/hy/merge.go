package hy

import (
	"fmt"

	"decibel/internal/bitmap"
	"decibel/internal/core"
	"decibel/internal/record"
	"decibel/internal/vgraph"
)

// Merge implements core.Engine for the hybrid scheme (Section 3.4):
// "as in tuple-first, the segment bitmaps can be leveraged (also
// requiring the lowest common ancestor commit) to determine where the
// conflicts are within the segment"; records adopted from the second
// parent are marked live in the merged branch's bitmaps within their
// containing segments, creating new bitmaps for the branch within a
// segment if necessary; resolved conflict records are appended to the
// merged branch's head segment.
func (e *Engine) Merge(into, other vgraph.BranchID, mc *vgraph.Commit, kind core.MergeKind) (core.MergeStats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var st core.MergeStats

	lcaID := e.env.Graph.LCA(mc.Parents[0], mc.Parents[1])
	lcaCommit, ok := e.env.Graph.Commit(lcaID)
	if !ok {
		return st, fmt.Errorf("hy: merge has no common ancestor")
	}
	lcaSnap, err := e.checkoutLocked(lcaCommit.Branch, lcaCommit.Seq)
	if err != nil {
		return st, err
	}

	// Rows from the two branches (and the LCA) may sit in segments of
	// different schema versions; resolve everything under the merge
	// commit's schema and make sure the head segment materialized
	// results land in can hold the merged layout.
	epoch := mc.SchemaVer
	recSize := int64(e.hist.VisibleAt(epoch).RecordSize())
	type entry struct {
		lcaPos   pos
		hasLCA   bool
		changedA bool
		changedB bool
	}
	entries := make(map[int64]*entry)
	collect := func(branch vgraph.BranchID, isA bool) error {
		for _, s := range e.segs {
			cur := s.local[branch]
			lca := lcaSnap[s.id]
			if cur == nil && lca == nil {
				continue
			}
			if cur == nil {
				cur = bitmap.New(0)
			}
			if lca == nil {
				lca = bitmap.New(0)
			}
			x := bitmap.Xor(cur, lca)
			buf := make([]byte, s.Schema.RecordSize())
			var scanErr error
			x.ForEach(func(slot int) bool {
				if err := s.File.Read(int64(slot), buf); err != nil {
					scanErr = err
					return false
				}
				st.TuplesScanned++
				st.DiffBytes += recSize
				pk := record.PKOf(buf)
				en := entries[pk]
				if en == nil {
					en = &entry{}
					entries[pk] = en
				}
				if isA {
					en.changedA = true
				} else {
					en.changedB = true
				}
				if lca.Get(slot) {
					en.lcaPos = pos{Seg: s.id, Slot: int64(slot)}
					en.hasLCA = true
				}
				return true
			})
			if scanErr != nil {
				return scanErr
			}
		}
		return nil
	}
	if err := collect(into, true); err != nil {
		return st, err
	}
	if err := collect(other, false); err != nil {
		return st, err
	}

	headSeg, err := e.writeHeadLocked(into)
	if err != nil {
		return st, err
	}
	head := headSeg.id
	readAt := func(p pos) (*record.Record, error) {
		s := e.byID[p.Seg]
		buf := make([]byte, s.Schema.RecordSize())
		if err := s.File.Read(p.Slot, buf); err != nil {
			return nil, err
		}
		cv, err := e.hist.Conv(s.Cols, epoch)
		if err != nil {
			return nil, err
		}
		st.TuplesScanned++
		return cv.Materialize(buf), nil
	}
	setLive := func(branch vgraph.BranchID, p pos) {
		s := e.byID[p.Seg]
		bm := s.local[branch]
		if bm == nil {
			bm = bitmap.New(0)
			s.local[branch] = bm
		}
		bm.Set(int(p.Slot))
	}

	for pk, en := range entries {
		if en.changedA {
			st.ChangedA++
		}
		if en.changedB {
			st.ChangedB++
		}
		posA := e.livePos(into, pk)
		posB := e.livePos(other, pk)
		switch {
		case en.changedA && !en.changedB:
			// Keep into's state.
		case en.changedB && !en.changedA:
			if posA != noPos {
				e.clearLive(into, posA)
			}
			if posB != noPos {
				setLive(into, posB)
			}
		default:
			var recA, recB, base *record.Record
			if posA != noPos {
				if recA, err = readAt(posA); err != nil {
					return st, err
				}
			}
			if posB != noPos {
				if recB, err = readAt(posB); err != nil {
					return st, err
				}
			}
			apply := func(rec *record.Record, deleted bool) error {
				if posA != noPos {
					e.clearLive(into, posA)
				}
				if deleted {
					return nil
				}
				var p pos
				switch {
				case recA != nil && rec.Equal(recA):
					p = posA
				case recB != nil && rec.Equal(recB):
					p = posB
				default:
					slot, err := e.st.Append(e.byID[head].Segment, rec)
					if err != nil {
						return err
					}
					p = pos{Seg: head, Slot: slot}
					e.vers.Push(pk, p)
					st.Materialized++
				}
				setLive(into, p)
				return nil
			}
			if kind == core.TwoWay {
				same := (recA == nil && recB == nil) || (recA != nil && recB != nil && recA.Equal(recB))
				if !same {
					st.Conflicts++
				}
				var err error
				if mc.PrecedenceFirst {
					if recA == nil {
						err = apply(nil, true)
					} else {
						err = apply(recA, false)
					}
				} else if recB == nil {
					err = apply(nil, true)
				} else {
					err = apply(recB, false)
				}
				if err != nil {
					return st, err
				}
				continue
			}
			if en.hasLCA {
				if base, err = readAt(en.lcaPos); err != nil {
					return st, err
				}
			}
			res := record.Merge3(base, recA, recB, mc.PrecedenceFirst)
			if res.Conflict {
				st.Conflicts++
			}
			if res.Deleted {
				if err := apply(nil, true); err != nil {
					return st, err
				}
			} else if err := apply(res.Record, false); err != nil {
				return st, err
			}
		}
	}
	return st, e.commitLocked(mc)
}
