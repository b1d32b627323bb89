// Package vgraph implements Decibel's version graph (Section 2.2): a
// directed acyclic graph of immutable versions (commits) plus the set
// of named branches whose heads point into it. All three storage
// engines "depend on a version graph recording the relationships
// between the versions being available in memory" (Section 3).
//
// On disk the graph is a log with a checkpoint (log.go): every
// operation appends one record to the dataset's write-ahead log, and
// graph.json is a snapshot the log is replayed over at open — so a
// commit costs one append, whatever the length of the history.
package vgraph

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"decibel/internal/wal"
)

// CommitID identifies a version. IDs are dense, starting at 1; 0 is
// the invalid/none value.
type CommitID uint64

// None is the zero CommitID.
const None CommitID = 0

// BranchID identifies a branch. Dense, starting at 0.
type BranchID uint32

// MasterName is the name of the initial branch, "the authoritative
// branch of record for the evolving dataset".
const MasterName = "master"

// Commit is one immutable version in the graph.
type Commit struct {
	ID      CommitID   `json:"id"`
	Parents []CommitID `json:"parents"` // empty for init, two for merges
	Branch  BranchID   `json:"branch"`  // branch the commit was made on
	Seq     int        `json:"seq"`     // zero-based commit index within that branch
	Message string     `json:"message"`
	Depth   int        `json:"depth"`          // longest path from the init commit
	Time    int64      `json:"time,omitempty"` // creation time, Unix seconds (0 in pre-existing graphs)
	// SchemaVer is the dataset schema epoch in effect at this commit:
	// inherited from the first parent (the max of both parents for
	// merges), bumped when the commit itself carries schema changes.
	// Reads "as of" this commit resolve the catalog at this epoch.
	SchemaVer int `json:"schemaVer,omitempty"`
	// PrecedenceFirst applies to merge commits: true if Parents[0] (the
	// branch merged into) wins conflicting fields, the paper's default
	// precedence policy.
	PrecedenceFirst bool `json:"precedenceFirst,omitempty"`
}

// IsMerge reports whether the commit has multiple parents.
func (c *Commit) IsMerge() bool { return len(c.Parents) > 1 }

// Branch is a named working copy: a head commit plus bookkeeping about
// where it branched from.
type Branch struct {
	ID     BranchID `json:"id"`
	Name   string   `json:"name"`
	Head   CommitID `json:"head"`
	From   CommitID `json:"from"`   // commit the branch was created at (None for master)
	Parent BranchID `json:"parent"` // branch it was created from (self for master)
	Active bool     `json:"active"` // benchmark strategies retire branches
}

// Graph is the in-memory version graph, durable through Open's log and
// snapshot or memory-only through New. All methods are safe for
// concurrent use.
type Graph struct {
	mu       sync.RWMutex
	commits  map[CommitID]*Commit
	branches map[BranchID]*Branch
	byName   map[string]BranchID
	onBranch map[BranchID][]*Commit // the commits made on each branch, indexed by Seq
	nextC    CommitID
	nextB    BranchID

	// Persistence (log.go); a nil log keeps the graph memory-only.
	log      *wal.Log
	snapPath string
	fsync    bool
	snapSize int64   // bytes of the snapshot the log sits on
	pending  *Commit // in memory but not yet logged: see Publish
}

// New creates an empty memory-only graph.
func New() *Graph {
	return &Graph{
		commits:  make(map[CommitID]*Commit),
		branches: make(map[BranchID]*Branch),
		byName:   make(map[string]BranchID),
		onBranch: make(map[BranchID][]*Commit),
		nextC:    1,
	}
}

// installBranch adds a branch to the in-memory graph; caller holds g.mu.
func (g *Graph) installBranch(b *Branch) {
	g.branches[b.ID] = b
	g.byName[b.Name] = b.ID
	g.nextB = b.ID + 1
}

// installCommit adds a commit as the new head of its branch; the init
// commit brings the master branch with it. Caller holds g.mu.
func (g *Graph) installCommit(c *Commit) {
	if len(c.Parents) == 0 {
		g.installBranch(&Branch{ID: c.Branch, Name: MasterName, Parent: c.Branch, Active: true})
	}
	g.commits[c.ID] = c
	g.onBranch[c.Branch] = append(g.onBranch[c.Branch], c)
	g.branches[c.Branch].Head = c.ID
	g.nextC = c.ID + 1
}

// beginCommitLocked installs a commit the caller has yet to Publish.
func (g *Graph) beginCommitLocked(c *Commit) (*Commit, error) {
	if g.pending != nil {
		return nil, fmt.Errorf("vgraph: commit %d was neither published nor aborted", g.pending.ID)
	}
	g.installCommit(c)
	if g.log != nil {
		g.pending = c
	}
	return c, nil
}

// Publish makes a commit returned by Init, NewCommit, NewCommitSchema
// or NewMergeCommit durable: one log record, synced when the graph was
// opened with fsync. Those calls only advance the graph in memory, so
// that the storage engines can apply the commit first; the record is
// the commit point, and is written only once every engine has returned
// — the log never names a commit an engine lacks. If the append fails
// the commit is aborted. On a memory-only graph Publish does nothing.
func (g *Graph) Publish(c *Commit) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.log == nil {
		return nil
	}
	if g.pending != c {
		return fmt.Errorf("vgraph: commit %d is not pending", c.ID)
	}
	if err := g.appendLocked(wal.KindGraphCommit, c); err != nil {
		g.abortLocked(c)
		return err
	}
	g.pending = nil
	g.checkpointIfGrownLocked()
	return nil
}

// Abort takes back the newest commit, as if it had never been created:
// the branch head, the commit count and the next ID and Seq are what
// they were. It is for a commit the engines failed to apply.
func (g *Graph) Abort(c *Commit) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.abortLocked(c)
}

func (g *Graph) abortLocked(c *Commit) {
	if g.commits[c.ID] != c || c.ID != g.nextC-1 {
		return
	}
	delete(g.commits, c.ID)
	g.nextC = c.ID
	if len(c.Parents) == 0 {
		delete(g.onBranch, c.Branch)
		delete(g.byName, g.branches[c.Branch].Name)
		delete(g.branches, c.Branch)
		g.nextB = c.Branch
	} else {
		g.onBranch[c.Branch] = g.onBranch[c.Branch][:c.Seq]
		g.branches[c.Branch].Head = c.Parents[0]
	}
	if g.pending == c {
		g.pending = nil
	}
}

// Init creates the master branch and its initial commit (Section 2.2.3
// "Init"). It fails if the graph already has commits. The commit must
// be Published.
func (g *Graph) Init(message string) (*Branch, *Commit, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.commits) != 0 {
		return nil, nil, errors.New("vgraph: already initialized")
	}
	c, err := g.beginCommitLocked(&Commit{ID: g.nextC, Branch: g.nextB, Message: message, Time: time.Now().Unix()})
	if err != nil {
		return nil, nil, err
	}
	master := *g.branches[c.Branch]
	return &master, c, nil
}

// Initialized reports whether Init has run.
func (g *Graph) Initialized() bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.commits) > 0
}

// NewBranch creates a branch named name rooted at commit from. Any
// commit in any branch may serve as the branch point (Section 2.2.3).
// The branch is logged before NewBranch returns, ahead of any engine
// work: a branch with no engine state is its branch point.
func (g *Graph) NewBranch(name string, from CommitID) (*Branch, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.byName[name]; dup {
		return nil, fmt.Errorf("vgraph: branch %q already exists", name)
	}
	fc, ok := g.commits[from]
	if !ok {
		return nil, fmt.Errorf("vgraph: commit %d does not exist", from)
	}
	b := &Branch{ID: g.nextB, Name: name, Head: from, From: from, Parent: fc.Branch, Active: true}
	if err := g.appendLocked(wal.KindGraphBranch, b); err != nil {
		return nil, err
	}
	g.installBranch(b)
	g.checkpointIfGrownLocked()
	cp := *b
	return &cp, nil
}

// NewCommit appends a commit to the branch, advancing its head.
// Commits are only allowed at branch heads (Section 2.2.3: "Commits are
// not allowed to non-head versions of branches"), which this enforces
// by construction. The commit must be Published.
func (g *Graph) NewCommit(branch BranchID, message string) (*Commit, error) {
	return g.NewCommitSchema(branch, message, -1)
}

// NewCommitSchema is NewCommit with an explicit schema epoch stamp:
// schemaVer >= 0 marks the commit as carrying schema changes up to
// that epoch, while -1 inherits the branch head's epoch (the common
// case — most commits change data, not schema).
func (g *Graph) NewCommitSchema(branch BranchID, message string, schemaVer int) (*Commit, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	b, ok := g.branches[branch]
	if !ok {
		return nil, fmt.Errorf("vgraph: branch %d does not exist", branch)
	}
	head := g.commits[b.Head]
	if schemaVer < 0 {
		schemaVer = head.SchemaVer
	}
	return g.beginCommitLocked(&Commit{
		ID:        g.nextC,
		Parents:   []CommitID{b.Head},
		Branch:    branch,
		Seq:       len(g.onBranch[branch]),
		Message:   message,
		Depth:     head.Depth + 1,
		Time:      time.Now().Unix(),
		SchemaVer: schemaVer,
	})
}

// Head returns the branch's current head commit under the graph lock —
// the cheap way to re-read just the head when a Branch snapshot may
// have gone stale (the server's snapshot pinning, head-coherence
// checks before scans).
func (g *Graph) Head(branch BranchID) (CommitID, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	b, ok := g.branches[branch]
	if !ok {
		return None, false
	}
	return b.Head, true
}

// MaxSchemaVer returns the newest schema epoch any commit is stamped
// with — the dataset's committed schema epoch. Crash recovery rolls
// catalog histories back to this point, so schema changes whose commit
// never made it to the graph disappear with their commit.
func (g *Graph) MaxSchemaVer() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	max := 0
	for _, c := range g.commits {
		if c.SchemaVer > max {
			max = c.SchemaVer
		}
	}
	return max
}

// NewMergeCommit merges the head of branch other into branch into,
// creating a commit with two parents whose first parent is into's head.
// precedenceFirst selects the paper's default conflict policy (first
// parent wins). The merged commit becomes the head of into. The commit
// must be Published.
func (g *Graph) NewMergeCommit(into, other BranchID, message string, precedenceFirst bool) (*Commit, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	bi, ok := g.branches[into]
	if !ok {
		return nil, fmt.Errorf("vgraph: branch %d does not exist", into)
	}
	bo, ok := g.branches[other]
	if !ok {
		return nil, fmt.Errorf("vgraph: branch %d does not exist", other)
	}
	if into == other {
		return nil, errors.New("vgraph: cannot merge a branch into itself")
	}
	d := g.commits[bi.Head].Depth
	if od := g.commits[bo.Head].Depth; od > d {
		d = od
	}
	// A merge adopts the newer schema epoch of its two parents: rows
	// inherited from the older side decode with defaults filled.
	sv := g.commits[bi.Head].SchemaVer
	if osv := g.commits[bo.Head].SchemaVer; osv > sv {
		sv = osv
	}
	return g.beginCommitLocked(&Commit{
		ID:              g.nextC,
		Parents:         []CommitID{bi.Head, bo.Head},
		Branch:          into,
		Seq:             len(g.onBranch[into]),
		Message:         message,
		Depth:           d + 1,
		Time:            time.Now().Unix(),
		SchemaVer:       sv,
		PrecedenceFirst: precedenceFirst,
	})
}

// SetActive marks a branch active or retired (benchmark strategies
// retire science/curation branches after a fixed lifetime).
func (g *Graph) SetActive(branch BranchID, active bool) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	b, ok := g.branches[branch]
	if !ok {
		return fmt.Errorf("vgraph: branch %d does not exist", branch)
	}
	flagged := *b
	flagged.Active = active
	if err := g.appendLocked(wal.KindGraphBranch, &flagged); err != nil {
		return err
	}
	b.Active = active
	g.checkpointIfGrownLocked()
	return nil
}

// Commit returns the commit with the given ID.
func (g *Graph) Commit(id CommitID) (*Commit, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	c, ok := g.commits[id]
	return c, ok
}

// Branch returns the branch with the given ID. Branch accessors
// return snapshot copies, never the live struct: commits advance Head
// in place under the graph lock, so a shared pointer would race with
// every unlocked field read. A snapshot may go stale — callers that
// need the freshest head re-read via Head or a fresh Branch call.
func (g *Graph) Branch(id BranchID) (*Branch, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	b, ok := g.branches[id]
	if !ok {
		return nil, false
	}
	cp := *b
	return &cp, true
}

// BranchByName resolves a branch name.
func (g *Graph) BranchByName(name string) (*Branch, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	id, ok := g.byName[name]
	if !ok {
		return nil, false
	}
	cp := *g.branches[id]
	return &cp, true
}

// Branches returns all branches ordered by ID.
func (g *Graph) Branches() []*Branch {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]*Branch, 0, len(g.branches))
	for _, b := range g.branches {
		cp := *b
		out = append(out, &cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Heads returns the head commit IDs of all branches, ordered by branch
// ID. These are the versions Query 4's HEAD() function selects.
func (g *Graph) Heads() []CommitID {
	bs := g.Branches()
	out := make([]CommitID, len(bs))
	for i, b := range bs {
		out[i] = b.Head
	}
	return out
}

// NumCommits returns the number of commits in the graph.
func (g *Graph) NumCommits() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.commits)
}

// ancestorsLocked returns the set of all ancestors of c, including c
// itself; the caller holds g.mu.
func (g *Graph) ancestorsLocked(c CommitID) map[CommitID]bool {
	seen := make(map[CommitID]bool)
	stack := []CommitID{c}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		cm, ok := g.commits[id]
		if !ok {
			continue
		}
		seen[id] = true
		stack = append(stack, cm.Parents...)
	}
	return seen
}

// LCA returns the lowest common ancestor of two commits: the common
// ancestor with the greatest depth. Merge conflict detection compares
// both branch heads against this commit (Section 3.2 "the lca commit is
// restored"). Returns None if the commits share no ancestor.
func (g *Graph) LCA(a, b CommitID) CommitID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	aa := g.ancestorsLocked(a)
	best, bestDepth := None, -1
	for id := range g.ancestorsLocked(b) {
		if !aa[id] {
			continue
		}
		c := g.commits[id]
		if c.Depth > bestDepth || (c.Depth == bestDepth && c.ID > best) {
			best, bestDepth = id, c.Depth
		}
	}
	return best
}

// CommitsOnBranch returns the commits made on the given branch in Seq
// order (the branch's own commit log).
func (g *Graph) CommitsOnBranch(branch BranchID) []*Commit {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return append([]*Commit(nil), g.onBranch[branch]...)
}

// NumCommitsOn returns the number of commits made on the branch: the
// Seq its next commit will take.
func (g *Graph) NumCommitsOn(branch BranchID) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.onBranch[branch])
}

// CommitAt returns the seq'th commit made on the branch, zero-based.
func (g *Graph) CommitAt(branch BranchID, seq int) (*Commit, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	on := g.onBranch[branch]
	if seq < 0 || seq >= len(on) {
		return nil, false
	}
	return on[seq], true
}
