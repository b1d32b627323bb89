package bitmap

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// writeLegacyLog writes a pre-checksum commit log (no format marker,
// no per-entry CRC) holding the given snapshots as base deltas, the
// way the previous on-disk format did.
func writeLegacyLog(t *testing.T, path string, snaps []*Bitmap) {
	t.Helper()
	var out []byte
	last := New(0)
	for _, s := range snaps {
		payload := MarshalRLE(Xor(s, last))
		out = append(out, 0) // kind: base
		out = binary.AppendUvarint(out, uint64(len(payload)))
		out = append(out, payload...)
		last = s.Clone()
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCommitLogMigratesLegacyFormat guards the format transition: logs
// written before the per-entry CRC must survive an open with their
// full history intact (not be mistaken for corruption and truncated),
// get rewritten in the current format, and keep accepting appends.
func TestCommitLogMigratesLegacyFormat(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "b0.hist")
	snaps := make([]*Bitmap, 5)
	cur := New(0)
	for i := range snaps {
		cur.Set(4 * i)
		snaps[i] = cur.Clone()
	}
	writeLegacyLog(t, path, snaps)

	log, err := OpenCommitLog(path, 4)
	if err != nil {
		t.Fatalf("opening legacy log: %v", err)
	}
	if got := log.NumCommits(); got != len(snaps) {
		t.Fatalf("legacy log recovered %d commits, want %d", got, len(snaps))
	}
	for i, want := range snaps {
		bm, err := log.Checkout(i)
		if err != nil {
			t.Fatalf("checkout %d: %v", i, err)
		}
		if !bm.Equal(want) {
			t.Fatalf("commit %d diverged after migration: %v != %v", i, bm, want)
		}
	}
	cur.Set(999)
	if _, err := log.Append(cur); err != nil {
		t.Fatalf("append after migration: %v", err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// The migrated file is in the current format: marker present, and a
	// clean reopen sees everything.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[0] != logMagic {
		t.Fatal("migrated log lacks the format marker")
	}
	re, err := OpenCommitLog(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.NumCommits(); got != len(snaps)+1 {
		t.Fatalf("reopened migrated log has %d commits, want %d", got, len(snaps)+1)
	}
	if !re.Head().Equal(cur) {
		t.Fatal("head diverged after migration + append + reopen")
	}
}

// TestCommitLogLegacyTornTail: a torn tail on a legacy file drops only
// the torn entry during migration.
func TestCommitLogLegacyTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "b0.hist")
	snaps := make([]*Bitmap, 3)
	cur := New(0)
	for i := range snaps {
		cur.Set(4 * i)
		snaps[i] = cur.Clone()
	}
	writeLegacyLog(t, path, snaps)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-1); err != nil {
		t.Fatal(err)
	}
	log, err := OpenCommitLog(path, 4)
	if err != nil {
		t.Fatalf("opening torn legacy log: %v", err)
	}
	defer log.Close()
	if got := log.NumCommits(); got != len(snaps)-1 {
		t.Fatalf("torn legacy log recovered %d commits, want %d", got, len(snaps)-1)
	}
	bm, err := log.Checkout(len(snaps) - 2)
	if err != nil || !bm.Equal(snaps[len(snaps)-2]) {
		t.Fatalf("surviving prefix diverged: %v (%v)", bm, err)
	}
}

// TestCommitLogRejectsUnrecognizedFile: a non-empty file with neither
// the format marker nor any decodable legacy entry must be refused
// untouched, not rewritten (it is most likely a damaged current-format
// log or foreign data).
func TestCommitLogRejectsUnrecognizedFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "b0.hist")
	junk := []byte{0x7f, 0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}
	if err := os.WriteFile(path, junk, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCommitLog(path, 4); err == nil {
		t.Fatal("unrecognized file opened without error")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(junk) {
		t.Fatal("unrecognized file was modified on disk")
	}
}

// TestCommitLogMigrationKeepsBackup: migrating a legacy log preserves
// the original bytes next to it.
func TestCommitLogMigrationKeepsBackup(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "b0.hist")
	bm := New(0)
	bm.Set(3)
	writeLegacyLog(t, path, []*Bitmap{bm})
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	log, err := OpenCommitLog(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	backup, err := os.ReadFile(path + ".pre-crc")
	if err != nil {
		t.Fatalf("migration backup missing: %v", err)
	}
	if string(backup) != string(orig) {
		t.Fatal("migration backup differs from the original bytes")
	}
}

// TestCommitLogAbsurdLengthDoesNotPanic: a corrupt tail whose length
// uvarint is astronomically large must be handled as a torn tail, not
// a slice-bounds panic (regression for the parseEntry overflow).
func TestCommitLogAbsurdLengthDoesNotPanic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "b0.hist")
	// Marker, then kind=0 with a ~2^63 length uvarint.
	data := []byte{logMagic, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x01, 0x02}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	log, err := OpenCommitLog(path, 4)
	if err != nil {
		t.Fatalf("open with absurd entry length: %v", err)
	}
	defer log.Close()
	if got := log.NumCommits(); got != 0 {
		t.Fatalf("recovered %d commits from garbage, want 0", got)
	}
}

// TestCommitLogAbsurdBitmapLengthDoesNotPanic: an entry whose framing
// and CRC hold but whose RLE header claims 2^63 bits is a corrupt
// entry — cut away as a torn tail in a current-format log, no
// decodable entry in a legacy one — not a makeslice panic.
func TestCommitLogAbsurdBitmapLengthDoesNotPanic(t *testing.T) {
	payload := binary.AppendUvarint(binary.AppendUvarint(nil, 1<<63), 1<<2|runZero)
	entry := binary.AppendUvarint([]byte{0}, uint64(len(payload)))
	entry = append(entry, payload...)
	current := binary.LittleEndian.AppendUint32(append([]byte{logMagic}, entry...), crc32.ChecksumIEEE(entry))
	for _, data := range [][]byte{current, entry} {
		path := filepath.Join(t.TempDir(), "b0.hist")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		log, err := OpenCommitLog(path, 4)
		if data[0] != logMagic {
			if err == nil {
				log.Close()
				t.Fatal("a legacy file with no decodable entry was opened")
			}
			continue
		}
		if err != nil {
			t.Fatalf("open with an absurd bitmap length: %v", err)
		}
		if got := log.NumCommits(); got != 0 {
			t.Fatalf("recovered %d commits from a corrupt entry, want 0", got)
		}
		log.Close()
	}
}
