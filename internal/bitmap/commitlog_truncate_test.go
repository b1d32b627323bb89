package bitmap

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// buildLog appends n evolving snapshots to a fresh log at path and
// returns them.
func buildLog(t *testing.T, path string, fanout, n int) (*CommitLog, []*Bitmap) {
	t.Helper()
	cl, err := OpenCommitLog(path, fanout)
	if err != nil {
		t.Fatal(err)
	}
	cur := New(0)
	snaps := make([]*Bitmap, n)
	for i := range snaps {
		cur.Set(7 * i)
		if i%3 == 2 {
			cur.Clear(7 * (i - 1))
		}
		if _, err := cl.Append(cur); err != nil {
			t.Fatal(err)
		}
		snaps[i] = cur.Clone()
	}
	return cl, snaps
}

// Truncate(n) leaves the log — file bytes, head, checkouts, what the
// next append does — exactly as if commits n.. had never been made,
// whether it runs on the live log or on a reopened one.
func TestCommitLogTruncate(t *testing.T) {
	const fanout, total = 4, 11
	for n := 0; n <= total; n++ {
		for _, reopen := range []bool{false, true} {
			dir := t.TempDir()
			path, refPath := filepath.Join(dir, "b.hist"), filepath.Join(dir, "ref.hist")
			cl, snaps := buildLog(t, path, fanout, total)
			ref, _ := buildLog(t, refPath, fanout, n)
			if reopen {
				cl.Close()
				var err error
				if cl, err = OpenCommitLog(path, fanout); err != nil {
					t.Fatal(err)
				}
			}
			if err := cl.Truncate(n); err != nil {
				t.Fatalf("Truncate(%d): %v", n, err)
			}
			got, _ := os.ReadFile(path)
			want, _ := os.ReadFile(refPath)
			if !bytes.Equal(got, want) {
				t.Fatalf("Truncate(%d), reopen=%v: file differs from a log of %d commits (%d vs %d bytes)", n, reopen, n, len(got), len(want))
			}
			if size, _ := cl.Size(); size != int64(len(got)) {
				t.Fatalf("Truncate(%d): Size() = %d, file has %d bytes", n, size, len(got))
			}
			if cl.NumCommits() != n || !cl.Head().Equal(ref.Head()) {
				t.Fatalf("Truncate(%d): %d commits, head %v", n, cl.NumCommits(), cl.Head())
			}
			if n > 0 {
				checkNewestReplays(t, cl, snaps[n-1])
			}
			if _, err := cl.Checkout(n); err == nil && n < total {
				t.Fatalf("Truncate(%d): commit %d still checks out", n, n)
			}
			// The same commits again land where they did the first time.
			for i := n; i < total; i++ {
				if at, err := cl.Append(snaps[i]); err != nil || at != i {
					t.Fatalf("Truncate(%d): re-append of commit %d landed at %d (%v)", n, i, at, err)
				}
			}
			cl.Close()
			ref.Close()
			cl, err := OpenCommitLog(path, fanout)
			if err != nil {
				t.Fatal(err)
			}
			for i, snap := range snaps {
				if got, err := cl.Checkout(i); err != nil || !got.Equal(snap) {
					t.Fatalf("Truncate(%d) then re-append: checkout %d wrong (%v)", n, i, err)
				}
			}
			cl.Close()
		}
	}
}

// An entry is one buffer and one write; torn at any byte it is cut off
// at open, and the commits before it are untouched.
func TestCommitLogTornEntryAtEveryByte(t *testing.T) {
	const fanout, total = 4, 8 // the last entry is a composite: both kinds get torn
	dir := t.TempDir()
	path := filepath.Join(dir, "b.hist")
	cl, snaps := buildLog(t, path, fanout, total)
	cl.Close()
	whole, _ := os.ReadFile(path)
	short, _ := buildLog(t, filepath.Join(dir, "short.hist"), fanout, total-1)
	shortSize, _ := short.Size()
	short.Close()

	for cut := shortSize; cut < int64(len(whole)); cut++ {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cl, err := OpenCommitLog(path, fanout)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		// The base entry of the last commit is whole once the cut is past
		// it; the composite that follows it is rebuilt at open.
		n := cl.NumCommits()
		if n != total-1 && n != total {
			t.Fatalf("cut at %d: %d commits", cut, n)
		}
		checkNewestReplays(t, cl, snaps[n-1])
		for i := 0; i < n; i++ {
			if got, err := cl.Checkout(i); err != nil || !got.Equal(snaps[i]) {
				t.Fatalf("cut at %d: checkout %d wrong (%v)", cut, i, err)
			}
		}
		if n == total {
			if got, _ := os.ReadFile(path); !bytes.Equal(got, whole) {
				t.Fatalf("cut at %d: the rebuilt composite differs from the original", cut)
			}
		}
		cl.Close()
	}
}
