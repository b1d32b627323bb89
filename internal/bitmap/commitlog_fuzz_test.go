package bitmap

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCommitLogTornTail fuzzes the crash shape OpenCommitLog must
// absorb: a valid log of nCommits snapshots whose file is then either
// truncated at an arbitrary byte (a torn final write) or extended with
// arbitrary junk (a torn append of a commit that never completed).
// While the file keeps its format marker, reopening must never fail,
// must preserve a prefix of the committed history, and every surviving
// commit must check out to exactly the snapshot originally appended,
// the newest one's copy from memory equal to its replay from the file;
// a file that lost the marker is refused and left as it is.
func FuzzCommitLogTornTail(f *testing.F) {
	f.Add(uint8(3), int64(-1), []byte{})
	f.Add(uint8(5), int64(10), []byte{})
	f.Add(uint8(1), int64(-1), []byte{0, 200, 1, 2, 3})
	f.Add(uint8(20), int64(0), []byte{1, 7, 7, 7})
	f.Fuzz(func(t *testing.T, nCommits uint8, truncateAt int64, junk []byte) {
		n := int(nCommits%24) + 1
		dir := t.TempDir()
		path := filepath.Join(dir, "b0.hist")

		log, err := OpenCommitLog(path, 4)
		if err != nil {
			t.Fatal(err)
		}
		// Deterministic evolving snapshots: commit i sets bit 3i and
		// clears bit 3(i-1)+1 when set.
		snaps := make([]*Bitmap, n)
		cur := New(0)
		for i := 0; i < n; i++ {
			cur.Set(3 * i)
			if i > 0 {
				cur.Clear(3*(i-1) + 1)
			}
			cur.Set(3*i + 1)
			if _, err := log.Append(cur); err != nil {
				t.Fatal(err)
			}
			snaps[i] = cur.Clone()
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}

		// Corrupt the tail: truncate somewhere (if requested), then
		// append junk (if any).
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if truncateAt >= 0 {
			at := truncateAt % (fi.Size() + 1)
			if err := os.Truncate(path, at); err != nil {
				t.Fatal(err)
			}
		}
		if len(junk) > 0 {
			fh, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fh.Write(junk); err != nil {
				t.Fatal(err)
			}
			fh.Close()
		}

		// If the corruption destroyed the format marker (a truncation to
		// zero followed by junk), the file is no longer a commit log: open
		// refuses it and leaves it as it is. While the marker survives,
		// open never fails and keeps a prefix of the history.
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		re, err := OpenCommitLog(path, 4)
		if len(onDisk) > 0 && onDisk[0] != logMagic {
			if err == nil {
				re.Close()
				t.Fatal("a file without the format marker opened")
			}
			after, rerr := os.ReadFile(path)
			if rerr != nil || !bytes.Equal(after, onDisk) {
				t.Fatalf("refused file changed on disk (%v)", rerr)
			}
			return
		}
		if err != nil {
			t.Fatalf("reopen after torn tail: %v", err)
		}
		defer re.Close()
		got := re.NumCommits()
		if got > n {
			t.Fatalf("recovered %d commits from a log of %d", got, n)
		}
		for i := 0; i < got; i++ {
			bm, err := re.Checkout(i)
			if err != nil {
				t.Fatalf("checkout %d of %d: %v", i, got, err)
			}
			if !bm.Equal(snaps[i]) {
				t.Fatalf("commit %d snapshot diverged after recovery: %v != %v", i, bm, snaps[i])
			}
		}
		if got > 0 && !re.Head().Equal(snaps[got-1]) {
			t.Fatalf("head diverged: %v != %v", re.Head(), snaps[got-1])
		}
		if got > 0 {
			checkNewestReplays(t, re, snaps[got-1])
		}
		// The recovered log must keep accepting appends.
		cur = re.Head()
		cur.Set(1000)
		if _, err := re.Append(cur); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		bm, err := re.Checkout(re.NumCommits() - 1)
		if err != nil || !bm.Equal(cur) {
			t.Fatalf("post-recovery append did not round-trip: %v (%v)", bm, err)
		}
	})
}
