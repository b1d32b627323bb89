package vf

import (
	"fmt"
	"strings"

	"decibel/internal/record"
	"decibel/internal/vgraph"
)

// DumpLineage renders the lineage of a branch head for diagnostics.
func (e *Engine) DumpLineage(b vgraph.BranchID) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, cut, err := e.headLocked(b)
	if err != nil {
		return err.Error()
	}
	steps, err := e.lineageAt(pos{Seg: s.ID, Slot: cut})
	if err != nil {
		return err.Error()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "branch %d head seg%d cut %d\n", b, s.ID, cut)
	for i, st := range steps {
		if st.isOvr {
			fmt.Fprintf(&sb, "  [%d] overrides of seg%d: %v\n", i, st.ovr, e.cat.Segs[st.ovr].overrides)
		} else {
			fmt.Fprintf(&sb, "  [%d] seg%d [%d,%d)\n", i, st.iv.Seg, st.iv.From, st.iv.To)
		}
	}
	for _, sg := range e.cat.Segs {
		lk := ""
		if sg.hasLink {
			l := sg.link
			if l.IsMerge {
				lk = fmt.Sprintf(" merge(parent seg%d@%d c%d, other seg%d@%d c%d, lca c%d, precFirst=%v)",
					l.ParentSeg, l.ParentSlot, l.ParentCommit, l.OtherSeg, l.OtherSlot, l.OtherCommit, l.LCACommit, l.PrecedenceFirst)
			} else {
				lk = fmt.Sprintf(" from(seg%d@%d c%d)", l.ParentSeg, l.ParentSlot, l.ParentCommit)
			}
		}
		fmt.Fprintf(&sb, "  seg%d branch=%d count=%d ovr=%d%s\n", sg.ID, sg.branch, sg.File.Count(), len(sg.overrides), lk)
	}
	return sb.String()
}

// DumpKey renders the copies and tombstones of a primary key, newest
// first as the version index lists them, and the merge overrides that
// name it, for diagnostics.
func (e *Engine) DumpKey(pk int64) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var sb strings.Builder
	e.vers.Find(pk, func(q pos) bool {
		rec := record.New(e.cat.Segs[q.Seg].Schema)
		if e.cat.Segs[q.Seg].File.Read(q.Slot, rec.Bytes()) == nil {
			fmt.Fprintf(&sb, "  copy seg%d@%d tomb=%v %v\n", q.Seg, q.Slot, e.isDead(q), rec.String())
		}
		return false
	})
	for _, s := range e.cat.Segs {
		for _, ov := range s.overrides {
			if ov.PK == pk {
				fmt.Fprintf(&sb, "  override in seg%d -> seg%d@%d del=%v\n", s.ID, ov.Seg, ov.Slot, ov.Deleted)
			}
		}
	}
	return sb.String()
}
