// Package tf implements Decibel's tuple-first storage scheme (Section
// 3.2): tuples from every branch live together in one shared heap file,
// and a bitmap index — one bit per (tuple, branch) — records which
// branches each tuple is live in. The bitmap index comes in the two
// layouts of Section 3.1: branch-oriented (one bitmap per branch, each
// in its own block of memory) and tuple-oriented (one bit-row per tuple
// in a single packed matrix).
package tf

import (
	"decibel/internal/bitmap"
	"decibel/internal/vgraph"
)

// index abstracts over the two bitmap layouts.
type index interface {
	// addBranch registers a branch whose initial liveness is bm.
	addBranch(b vgraph.BranchID, bm *bitmap.Bitmap)
	// has reports whether the branch was registered.
	has(b vgraph.BranchID) bool
	// appendTuple extends the index for one appended heap slot.
	appendTuple(slot int64)
	set(slot int64, b vgraph.BranchID)
	clear(slot int64, b vgraph.BranchID)
	get(slot int64, b vgraph.BranchID) bool
	// column materializes the liveness bitmap of one branch. For the
	// tuple-oriented layout this scans the entire matrix, which is
	// exactly the single-branch-scan penalty the paper measures.
	column(b vgraph.BranchID) *bitmap.Bitmap
	// setColumn overwrites a branch's liveness wholesale (checkout /
	// recovery path).
	setColumn(b vgraph.BranchID, bm *bitmap.Bitmap)
	// membership fills dst so bit i reports whether the tuple at slot is
	// live in branches[i] (multi-branch scan fast path).
	membership(slot int64, branches []vgraph.BranchID, dst *bitmap.Bitmap)
	// bytes approximates the index's memory footprint.
	bytes() int64
}

// branchIndex is the branch-oriented layout: B bitmaps, one per branch.
type branchIndex struct {
	cols map[vgraph.BranchID]*bitmap.Bitmap
}

func newBranchIndex() *branchIndex {
	return &branchIndex{cols: make(map[vgraph.BranchID]*bitmap.Bitmap)}
}

func (ix *branchIndex) addBranch(b vgraph.BranchID, bm *bitmap.Bitmap) {
	ix.cols[b] = bm.Clone()
}

func (ix *branchIndex) has(b vgraph.BranchID) bool { _, ok := ix.cols[b]; return ok }

func (ix *branchIndex) appendTuple(int64) {} // columns grow lazily on Set

func (ix *branchIndex) set(slot int64, b vgraph.BranchID)   { ix.cols[b].Set(int(slot)) }
func (ix *branchIndex) clear(slot int64, b vgraph.BranchID) { ix.cols[b].Clear(int(slot)) }
func (ix *branchIndex) get(slot int64, b vgraph.BranchID) bool {
	bm, ok := ix.cols[b]
	return ok && bm.Get(int(slot))
}

func (ix *branchIndex) column(b vgraph.BranchID) *bitmap.Bitmap {
	if bm, ok := ix.cols[b]; ok {
		return bm.Clone()
	}
	return bitmap.New(0)
}

func (ix *branchIndex) setColumn(b vgraph.BranchID, bm *bitmap.Bitmap) {
	ix.cols[b] = bm.Clone()
}

func (ix *branchIndex) membership(slot int64, branches []vgraph.BranchID, dst *bitmap.Bitmap) {
	for i, b := range branches {
		dst.SetTo(i, ix.get(slot, b))
	}
}

func (ix *branchIndex) bytes() int64 {
	var n int64
	for _, bm := range ix.cols {
		n += int64(bm.Len()+7) / 8
	}
	return n
}

// tupleIndex is the tuple-oriented layout: one packed matrix with a row
// per tuple.
type tupleIndex struct {
	m    *bitmap.Matrix
	cols map[vgraph.BranchID]int // branch -> matrix column
}

func newTupleIndex() *tupleIndex {
	return &tupleIndex{m: bitmap.NewMatrix(), cols: make(map[vgraph.BranchID]int)}
}

func (ix *tupleIndex) addBranch(b vgraph.BranchID, bm *bitmap.Bitmap) {
	col := ix.m.AddBranch()
	ix.cols[b] = col
	bm.ForEach(func(i int) bool {
		for ix.m.NumTuples() <= i {
			ix.m.AppendTuple()
		}
		ix.m.Set(i, col)
		return true
	})
}

func (ix *tupleIndex) has(b vgraph.BranchID) bool { _, ok := ix.cols[b]; return ok }

func (ix *tupleIndex) appendTuple(slot int64) {
	for int64(ix.m.NumTuples()) <= slot {
		ix.m.AppendTuple()
	}
}

func (ix *tupleIndex) set(slot int64, b vgraph.BranchID) {
	ix.appendTuple(slot)
	ix.m.Set(int(slot), ix.cols[b])
}

func (ix *tupleIndex) clear(slot int64, b vgraph.BranchID) {
	if slot < int64(ix.m.NumTuples()) {
		ix.m.Clear(int(slot), ix.cols[b])
	}
}

func (ix *tupleIndex) get(slot int64, b vgraph.BranchID) bool {
	col, ok := ix.cols[b]
	if !ok || slot >= int64(ix.m.NumTuples()) {
		return false
	}
	return ix.m.Get(int(slot), col)
}

func (ix *tupleIndex) column(b vgraph.BranchID) *bitmap.Bitmap {
	col, ok := ix.cols[b]
	if !ok {
		return bitmap.New(0)
	}
	return ix.m.Column(col) // full matrix scan: the tuple-oriented cost
}

func (ix *tupleIndex) setColumn(b vgraph.BranchID, bm *bitmap.Bitmap) {
	col, ok := ix.cols[b]
	if !ok {
		ix.addBranch(b, bm)
		return
	}
	n := ix.m.NumTuples()
	for i := 0; i < n; i++ {
		if bm.Get(i) {
			ix.m.Set(i, col)
		} else {
			ix.m.Clear(i, col)
		}
	}
	bm.ForEach(func(i int) bool {
		if i >= n {
			ix.set(int64(i), b)
		}
		return true
	})
}

func (ix *tupleIndex) membership(slot int64, branches []vgraph.BranchID, dst *bitmap.Bitmap) {
	if slot >= int64(ix.m.NumTuples()) {
		for i := range branches {
			dst.SetTo(i, false)
		}
		return
	}
	row := ix.m.Row(int(slot))
	for i, b := range branches {
		col, ok := ix.cols[b]
		dst.SetTo(i, ok && row.Get(col))
	}
}

func (ix *tupleIndex) bytes() int64 {
	// stride words per tuple * tuples * 8 bytes.
	return int64(ix.m.NumTuples()) * int64((ix.m.NumBranches()+63)/64) * 8
}
