package vgraph

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"decibel/internal/wal"
)

// The graph on disk is two files in the dataset directory: wal.log, one
// record per operation since the last checkpoint, and graph.json, the
// checkpoint — a snapshot of the whole graph. Open loads the snapshot
// and replays the log over it. A checkpoint writes a new snapshot and
// then empties the log; it runs at Close and whenever the log has
// outgrown the snapshot it sits on, so the snapshot is rewritten
// O(log n) times over n operations and each operation's share of that
// is constant.
const (
	snapshotName = "graph.json"
	logName      = "wal.log"

	// minCheckpointLog is the log size below which no checkpoint is
	// taken however small the snapshot: young graphs would otherwise
	// rewrite it every few operations.
	minCheckpointLog = 64 << 10
)

// graphFile is the snapshot: every commit and branch, each by ID.
type graphFile struct {
	Commits  []*Commit `json:"commits"`
	Branches []*Branch `json:"branches"`
}

// errBadRecord marks a log record that passed its CRC but does not
// extend the graph it is replayed over.
var errBadRecord = errors.New("vgraph: log record does not fit the graph")

// Open opens the graph persisted in dir: the snapshot, then the log's
// graph records applied over it as upserts by ID. A record the snapshot
// already covers (a crash between a checkpoint's rename and its log
// truncation replays those) changes nothing; a torn tail has been cut
// by the log's CRC; a record that does not fit — it can only be
// corruption the CRC missed — ends the replay and is cut off with
// everything after it; records of other kinds (no dataset writer
// appends any) are skipped. With fsync, every operation syncs its
// record before returning, and a checkpoint syncs the snapshot before
// renaming it and the directory after.
func Open(dir string, fsync bool) (*Graph, error) {
	g := New()
	g.snapPath = filepath.Join(dir, snapshotName)
	g.fsync = fsync
	data, err := os.ReadFile(g.snapPath)
	if err == nil {
		err = g.load(data)
	} else if errors.Is(err, os.ErrNotExist) {
		err = nil
	}
	if err != nil {
		return nil, fmt.Errorf("vgraph: %w", err)
	}
	g.snapSize = int64(len(data))
	log, err := wal.Open(filepath.Join(dir, logName))
	if err != nil {
		return nil, err
	}
	valid := int64(0)
	err = log.Replay(func(r wal.Record) error {
		if err := g.replay(r); err != nil {
			return err
		}
		valid = r.End
		return nil
	})
	if errors.Is(err, errBadRecord) {
		err = log.Truncate(valid)
	}
	if err != nil {
		log.Close()
		return nil, err
	}
	g.log = log
	return g, nil
}

// load fills an empty graph from a snapshot.
func (g *Graph) load(data []byte) error {
	var gf graphFile
	if err := json.Unmarshal(data, &gf); err != nil {
		return fmt.Errorf("corrupt graph file: %w", err)
	}
	byID := func(i, j int) bool { return gf.Commits[i].ID < gf.Commits[j].ID }
	if !sort.SliceIsSorted(gf.Commits, byID) {
		sort.Slice(gf.Commits, byID)
	}
	for _, b := range gf.Branches {
		g.branches[b.ID] = b
		g.byName[b.Name] = b.ID
		if b.ID >= g.nextB {
			g.nextB = b.ID + 1
		}
	}
	// Commit IDs grow with time, so ID order is Seq order on each branch.
	for _, c := range gf.Commits {
		if _, ok := g.branches[c.Branch]; !ok || c.Seq != len(g.onBranch[c.Branch]) {
			return fmt.Errorf("corrupt graph file: commit %d is not commit %d of a known branch", c.ID, c.Seq)
		}
		g.commits[c.ID] = c
		g.onBranch[c.Branch] = append(g.onBranch[c.Branch], c)
		if c.ID >= g.nextC {
			g.nextC = c.ID + 1
		}
	}
	return nil
}

// replay applies one log record. New records must extend the graph
// exactly as the operation that wrote them did — the next ID, the next
// Seq on an existing branch, parents that exist — because they then go
// through the same install the operation itself used.
func (g *Graph) replay(r wal.Record) error {
	switch r.Kind {
	case wal.KindGraphCommit:
		c := new(Commit)
		if json.Unmarshal(r.Payload, c) != nil {
			return errBadRecord
		}
		if old, ok := g.commits[c.ID]; ok {
			if old.Branch != c.Branch || old.Seq != c.Seq {
				return errBadRecord
			}
			return nil
		}
		if c.ID != g.nextC || c.Seq != len(g.onBranch[c.Branch]) {
			return errBadRecord
		}
		if len(c.Parents) == 0 {
			if len(g.commits) != 0 || len(g.branches) != 0 || c.Branch != 0 {
				return errBadRecord
			}
		} else {
			b, ok := g.branches[c.Branch]
			if !ok || c.Parents[0] != b.Head {
				return errBadRecord
			}
			for _, p := range c.Parents[1:] {
				if _, ok := g.commits[p]; !ok {
					return errBadRecord
				}
			}
		}
		g.installCommit(c)
	case wal.KindGraphBranch:
		b := new(Branch)
		if json.Unmarshal(r.Payload, b) != nil {
			return errBadRecord
		}
		if old, ok := g.branches[b.ID]; ok {
			if old.Name != b.Name {
				return errBadRecord
			}
			old.Active = b.Active
			return nil
		}
		from, ok := g.commits[b.From]
		if _, dup := g.byName[b.Name]; dup || !ok || b.ID != g.nextB || b.Parent != from.Branch {
			return errBadRecord
		}
		b.Head = b.From
		g.installBranch(b)
	}
	return nil
}

// appendLocked logs one operation: a single record, synced when the
// graph is. A record whose sync fails is taken back out of the log.
func (g *Graph) appendLocked(kind wal.Kind, v any) error {
	if g.log == nil {
		return nil
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("vgraph: %w", err)
	}
	at := g.log.Size()
	if _, err := g.log.Append(kind, payload); err != nil {
		return err
	}
	if g.fsync {
		if err := g.log.Sync(); err != nil {
			return errors.Join(fmt.Errorf("vgraph: %w", err), g.log.Truncate(at))
		}
	}
	return nil
}

// checkpointIfGrownLocked checkpoints once the log is larger than the
// snapshot under it. The operation that got here is already durable in
// the log, so a checkpoint that fails costs it nothing: the log is
// kept, the next operation tries again, and Close reports the error if
// it persists.
func (g *Graph) checkpointIfGrownLocked() {
	if g.log != nil && g.pending == nil && g.log.Size() > max(minCheckpointLog, g.snapSize) {
		_ = g.checkpointLocked()
	}
}

// checkpointLocked writes the snapshot (tmp, rename) and then empties
// the log. A crash between the two leaves records the snapshot already
// holds, which Open replays to no effect.
func (g *Graph) checkpointLocked() error {
	gf := graphFile{
		Commits:  make([]*Commit, 0, len(g.commits)),
		Branches: make([]*Branch, 0, len(g.branches)),
	}
	for id := CommitID(1); id < g.nextC; id++ {
		if c, ok := g.commits[id]; ok {
			gf.Commits = append(gf.Commits, c)
		}
	}
	for id := BranchID(0); id < g.nextB; id++ {
		if b, ok := g.branches[id]; ok {
			gf.Branches = append(gf.Branches, b)
		}
	}
	data, err := json.Marshal(&gf)
	if err != nil {
		return fmt.Errorf("vgraph: %w", err)
	}
	if err := wal.ReplaceFile(g.snapPath, data, g.fsync); err != nil {
		return fmt.Errorf("vgraph: checkpoint: %w", err)
	}
	g.snapSize = int64(len(data))
	return g.log.Truncate(0)
}

// Close checkpoints the graph, so that the next Open reads one
// snapshot and an empty log, and closes the log. The graph must not be
// changed afterwards; reads keep working.
func (g *Graph) Close() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.log == nil {
		return nil
	}
	var err error
	if g.pending == nil && g.log.Size() > 0 {
		err = g.checkpointLocked()
	}
	if cerr := g.log.Close(); err == nil {
		err = cerr
	}
	g.log = nil
	return err
}
