package wal

import (
	"os"
	"path/filepath"
	"testing"
)

func TestReplaceFile(t *testing.T) {
	for _, fsync := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "catalog.json")
		for _, want := range []string{"first", "second, longer", "3"} {
			if err := ReplaceFile(path, []byte(want), fsync); err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != want {
				t.Fatalf("fsync=%v: read %q (%v), want %q", fsync, got, err, want)
			}
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("fsync=%v: temporary file left behind (%v)", fsync, err)
		}
	}
}

// A write that fails must leave the previous file as it was and no
// temporary file: /dev/full accepts the open and refuses every write.
func TestReplaceFileFailedWrite(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	for _, fsync := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "catalog.json")
		if err := ReplaceFile(path, []byte("committed"), fsync); err != nil {
			t.Fatal(err)
		}
		if err := os.Symlink("/dev/full", path+".tmp"); err != nil {
			t.Fatal(err)
		}
		if err := ReplaceFile(path, []byte("never lands"), fsync); err == nil {
			t.Fatalf("fsync=%v: a write to a full device succeeded", fsync)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != "committed" {
			t.Fatalf("fsync=%v: previous file reads %q (%v)", fsync, got, err)
		}
		if _, err := os.Lstat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("fsync=%v: temporary file left behind (%v)", fsync, err)
		}
	}
}
