// Package enginetest provides cross-engine differential testing: the
// same randomized versioned workload is applied to the tuple-first,
// version-first and hybrid engines plus an in-memory reference model,
// and every scan, checkout, diff and merge outcome must agree. This is
// the strongest correctness check in the repository: any semantic
// divergence between the three physical schemes of Section 3 fails
// here.
package enginetest

import (
	"decibel/internal/core"
	"decibel/internal/record"
	"decibel/internal/vgraph"
)

// state maps primary key -> encoded record bytes for one version.
type state map[int64]string

func (s state) clone() state {
	c := make(state, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// Model is the naive reference implementation: full state copies per
// branch and per commit. Obviously not a storage engine — it is the
// executable specification the engines are compared against.
type Model struct {
	schema   *record.Schema
	branches map[vgraph.BranchID]state
	commits  map[vgraph.CommitID]state
	keys     []int64        // every key any branch ever inserted, in first-insert order
	written  map[int64]bool // set of keys
}

// NewModel creates a reference model for the schema.
func NewModel(schema *record.Schema) *Model {
	return &Model{
		schema:   schema,
		branches: make(map[vgraph.BranchID]state),
		commits:  make(map[vgraph.CommitID]state),
		written:  make(map[int64]bool),
	}
}

// Init mirrors Database.Init.
func (m *Model) Init(master *vgraph.Branch, c0 *vgraph.Commit) {
	m.branches[master.ID] = state{}
	m.commits[c0.ID] = state{}
}

// Branch mirrors Database.Branch: the child starts from the commit's
// snapshot.
func (m *Model) Branch(child *vgraph.Branch, from *vgraph.Commit) {
	m.branches[child.ID] = m.commits[from.ID].clone()
}

// Commit mirrors Database.Commit.
func (m *Model) Commit(c *vgraph.Commit) {
	m.commits[c.ID] = m.branches[c.Branch].clone()
}

// Insert mirrors Table.Insert (upsert).
func (m *Model) Insert(b vgraph.BranchID, rec *record.Record) {
	m.branches[b][rec.PK()] = string(rec.Bytes())
	if !m.written[rec.PK()] {
		m.written[rec.PK()] = true
		m.keys = append(m.keys, rec.PK())
	}
}

// Keys returns every key any branch ever inserted.
func (m *Model) Keys() []int64 { return m.keys }

// Reopen mirrors closing and reopening the dataset: every branch falls
// back to its head commit, uncommitted changes are gone.
func (m *Model) Reopen(g *vgraph.Graph) {
	for _, b := range g.Branches() {
		m.branches[b.ID] = m.commits[b.Head].clone()
	}
}

// Delete mirrors Table.Delete.
func (m *Model) Delete(b vgraph.BranchID, pk int64) {
	delete(m.branches[b], pk)
}

// BranchState returns the live state of a branch head.
func (m *Model) BranchState(b vgraph.BranchID) state { return m.branches[b] }

// CommitState returns a committed snapshot.
func (m *Model) CommitState(c vgraph.CommitID) state { return m.commits[c] }

// Diff returns the byte-level diff: (record bytes, side) pairs where
// side true = in a not in b.
func (m *Model) Diff(a, b vgraph.BranchID) map[string]bool {
	out := make(map[string]bool)
	sa, sb := m.branches[a], m.branches[b]
	for pk, bytesA := range sa {
		if bytesB, ok := sb[pk]; !ok || bytesB != bytesA {
			out[bytesA+"\x00A"] = true
		}
	}
	for pk, bytesB := range sb {
		if bytesA, ok := sa[pk]; !ok || bytesA != bytesB {
			out[bytesB+"\x00B"] = true
		}
	}
	return out
}

func (m *Model) rec(encoded string) *record.Record {
	r, err := record.FromBytes(m.schema, []byte(encoded))
	if err != nil {
		panic(err)
	}
	return r
}

// Merge mirrors Database.Merge against the model: per-key three-way (or
// two-way tuple-level) resolution against the LCA snapshot, with the
// merged state becoming both into's branch state and mc's snapshot.
// Returns the number of conflicts.
func (m *Model) Merge(g *vgraph.Graph, into, other vgraph.BranchID, mc *vgraph.Commit, kind core.MergeKind) int {
	lcaID := g.LCA(mc.Parents[0], mc.Parents[1])
	lca := m.commits[lcaID]
	sa, sb := m.branches[into], m.branches[other]
	merged := sa.clone()
	conflicts := 0

	union := make(map[int64]struct{})
	for pk := range sa {
		union[pk] = struct{}{}
	}
	for pk := range sb {
		union[pk] = struct{}{}
	}
	for pk := range lca {
		union[pk] = struct{}{}
	}
	for pk := range union {
		va, okA := sa[pk]
		vb, okB := sb[pk]
		vl, okL := lca[pk]
		changedA := okA != okL || (okA && va != vl)
		changedB := okB != okL || (okB && vb != vl)
		switch {
		case !changedA && !changedB:
			// keep
		case changedA && !changedB:
			// keep into's state (already in merged)
		case changedB && !changedA:
			if okB {
				merged[pk] = vb
			} else {
				delete(merged, pk)
			}
		default:
			if kind == core.TwoWay {
				same := okA == okB && (!okA || va == vb)
				if !same {
					conflicts++
				}
				if mc.PrecedenceFirst {
					// into's state stays
				} else if okB {
					merged[pk] = vb
				} else {
					delete(merged, pk)
				}
				continue
			}
			var base, ra, rb *record.Record
			if okL {
				base = m.rec(vl)
			}
			if okA {
				ra = m.rec(va)
			}
			if okB {
				rb = m.rec(vb)
			}
			res := record.Merge3(base, ra, rb, mc.PrecedenceFirst)
			if res.Conflict {
				conflicts++
			}
			if res.Deleted {
				delete(merged, pk)
			} else {
				merged[pk] = string(res.Record.Bytes())
			}
		}
	}
	m.branches[into] = merged
	m.commits[mc.ID] = merged.clone()
	return conflicts
}
