package bitmap

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// absurdEntry is one framed entry whose RLE header claims 2^63 bits:
// decoding it once made a slice that large.
func absurdEntry() []byte {
	payload := binary.AppendUvarint(binary.AppendUvarint(nil, 1<<63), 1<<2|runZero)
	entry := binary.AppendUvarint([]byte{0}, uint64(len(payload)))
	return append(entry, payload...)
}

// TestCommitLogRejectsUnrecognizedFile: a non-empty file whose first
// byte is not the format marker is refused, and left on disk byte for
// byte as it was, with nothing written beside it — whether it holds
// entries without the marker and their checksums (the layout before
// the checksum), foreign bytes, or an entry whose header once panicked
// the decoder.
func TestCommitLogRejectsUnrecognizedFile(t *testing.T) {
	bm := New(0)
	bm.Set(3)
	payload := MarshalRLE(bm)
	unmarked := binary.AppendUvarint([]byte{0}, uint64(len(payload)))
	unmarked = append(unmarked, payload...)
	for name, data := range map[string][]byte{
		"entries without marker or checksum": unmarked,
		"foreign bytes":                      {0x7f, 0xde, 0xad, 0xbe, 0xef, 0x00, 0x01},
		"absurd bitmap header":               absurdEntry(),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "b0.hist")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if log, err := OpenCommitLog(path, 4); err == nil {
				log.Close()
				t.Fatal("a file without the format marker opened")
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("refused file changed on disk: %x, was %x", got, data)
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(ents) != 1 {
				t.Fatalf("refusing the file left %d files in its directory, want 1", len(ents))
			}
		})
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
// entry, cut away as a torn tail, not a makeslice panic.
func TestCommitLogAbsurdBitmapLengthDoesNotPanic(t *testing.T) {
	entry := absurdEntry()
	data := binary.LittleEndian.AppendUint32(append([]byte{logMagic}, entry...), crc32.ChecksumIEEE(entry))
	path := filepath.Join(t.TempDir(), "b0.hist")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	log, err := OpenCommitLog(path, 4)
	if err != nil {
		t.Fatalf("open with an absurd bitmap length: %v", err)
	}
	defer log.Close()
	if got := log.NumCommits(); got != 0 {
		t.Fatalf("recovered %d commits from a corrupt entry, want 0", got)
	}
}
