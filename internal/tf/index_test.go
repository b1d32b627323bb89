package tf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"decibel/internal/bitmap"
	"decibel/internal/vgraph"
)

// Property: branchIndex and tupleIndex implement identical semantics.
func TestQuickIndexLayoutsAgree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		bi := newBranchIndex()
		ti := newTupleIndex()
		idxs := []index{bi, ti}
		var branches []vgraph.BranchID
		add := func(b vgraph.BranchID, bm *bitmap.Bitmap) {
			for _, ix := range idxs {
				ix.addBranch(b, bm)
			}
			branches = append(branches, b)
		}
		add(0, bitmap.New(0))
		maxSlot := int64(0)
		for op := 0; op < 200; op++ {
			switch r.Intn(5) {
			case 0: // new branch cloned from existing column
				parent := branches[r.Intn(len(branches))]
				add(vgraph.BranchID(len(branches)), bi.column(parent))
			case 1: // append tuple
				for _, ix := range idxs {
					ix.appendTuple(maxSlot)
				}
				maxSlot++
			case 2: // set
				b := branches[r.Intn(len(branches))]
				s := r.Int63n(maxSlot + 1)
				for _, ix := range idxs {
					ix.set(s, b)
				}
				if s >= maxSlot {
					maxSlot = s + 1
				}
			case 3: // clear
				b := branches[r.Intn(len(branches))]
				if maxSlot > 0 {
					s := r.Int63n(maxSlot)
					for _, ix := range idxs {
						ix.clear(s, b)
					}
				}
			case 4: // setColumn
				b := branches[r.Intn(len(branches))]
				bm := bitmap.New(0)
				for i := int64(0); i < maxSlot; i++ {
					if r.Intn(3) == 0 {
						bm.Set(int(i))
					}
				}
				for _, ix := range idxs {
					ix.setColumn(b, bm)
				}
			}
		}
		// Columns agree.
		for _, b := range branches {
			if !bi.column(b).Equal(ti.column(b)) {
				return false
			}
		}
		// Point queries and membership agree.
		member1 := bitmap.New(len(branches))
		member2 := bitmap.New(len(branches))
		for s := int64(0); s < maxSlot; s++ {
			for _, b := range branches {
				if bi.get(s, b) != ti.get(s, b) {
					return false
				}
			}
			bi.membership(s, branches, member1)
			ti.membership(s, branches, member2)
			if !member1.Equal(member2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTupleIndexMembershipPastEnd(t *testing.T) {
	ti := newTupleIndex()
	ti.addBranch(1, bitmap.New(0))
	m := bitmap.New(1)
	m.Set(0)
	ti.membership(100, []vgraph.BranchID{1}, m)
	if m.Any() {
		t.Fatal("membership past end not cleared")
	}
	if ti.get(100, 1) {
		t.Fatal("get past end true")
	}
	ti.clear(100, 1) // must not panic
}

func TestBranchIndexUnknownBranch(t *testing.T) {
	bi := newBranchIndex()
	if bi.get(0, 42) {
		t.Fatal("unknown branch bit set")
	}
	if bi.column(42).Any() {
		t.Fatal("unknown branch column non-empty")
	}
}
