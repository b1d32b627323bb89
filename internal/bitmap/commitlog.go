package bitmap

import (
	"encoding/binary"
	"errors"
	"expvar"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// CommitLog is the per-branch commit history file of Section 3.2. Each
// commit appends the RLE-compressed XOR delta between the branch's
// bitmap at this commit and at the previous commit. Checkout of an
// older commit replays deltas from the start, XOR-ing each in sequence
// to recreate the snapshot.
//
// To bound the replay chain, runs of base deltas are aggregated into a
// higher layer of composite deltas: every LayerFanout base deltas, the
// log also appends one composite delta that is the XOR of that whole
// run (equivalently, snapshot[k*F] XOR snapshot[(k-1)*F]). Checkout of
// commit i then replays i/F composite deltas plus at most F-1 base
// deltas, each read through one reused buffer and XOR-decoded straight
// into the snapshot. The paper uses exactly two layers because that
// made checkout "adequate (taking a few hundred ms)"; so do we. The
// newest commit is not replayed at all: the log keeps its bitmap in
// memory for the next Append's delta, and Checkout copies it out. A
// read pinned to a branch's head — every served read, and every merge
// whose common ancestor is a head — reads no file.
//
// On-disk format, one file per (branch) or per (branch, segment): a
// one-byte format marker followed by entries
//
//	file  := magic(0xD1) | entry*
//	entry := kind(1 byte: 0 base, 1 composite) | len(uvarint) | RLE bytes | crc32(4 bytes LE)
//
// Entries are append-only, each written with one write; a torn final
// entry (e.g. after a crash) is detected by length and truncated away
// on open. The trailing CRC-32
// (IEEE, over kind, length and payload) catches the case length
// framing cannot: a write torn mid-entry whose tail is later overlaid
// by other bytes can otherwise re-parse as a plausible entry and
// silently corrupt every snapshot from that commit on (found by
// FuzzCommitLogTornTail). A non-empty file whose first byte is not the
// marker is no commit log of this format: open refuses it and leaves
// it as it is.
type CommitLog struct {
	mu     sync.Mutex
	path   string
	f      *os.File
	fanout int
	end    int64  // file size: where the next entry goes
	buf    []byte // reused entry buffer

	// In-memory index of entry offsets, rebuilt on open.
	base      []logEntry // base deltas, one per commit
	composite []logEntry // composite deltas, one per fanout run

	// State for appending: bitmap at last commit (also what Checkout of
	// the newest commit copies), and XOR accumulator for the composite
	// layer.
	last *Bitmap
	acc  *Bitmap
}

type logEntry struct {
	off  int64 // of the RLE payload
	size int
}

// start returns the file offset of the entry's kind byte.
func (e logEntry) start() int64 {
	return e.off - 1 - int64(len(binary.AppendUvarint(nil, uint64(e.size))))
}

// DefaultLayerFanout is the number of base deltas aggregated into one
// composite delta. A history file does not record the fanout it was
// written with, and reading it with another returns wrong snapshots, so
// every dataset uses this one.
const DefaultLayerFanout = 16

// OpenCommitLog opens (creating if necessary) the commit history file at
// path. Any torn trailing entry is truncated. fanout <= 0 selects
// DefaultLayerFanout.
func OpenCommitLog(path string, fanout int) (*CommitLog, error) {
	if fanout <= 0 {
		fanout = DefaultLayerFanout
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("commitlog: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("commitlog: %w", err)
	}
	cl := &CommitLog{path: path, f: f, fanout: fanout, last: New(0), acc: New(0)}
	if err := cl.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return cl, nil
}

// logMagic is a commit log's first byte.
const logMagic = 0xD1

// parseEntry validates one entry at the front of rest: its framing,
// its CRC and its RLE payload, which it walks without decoding. It
// returns the entry's total encoded length (0 when rest holds no
// complete, valid entry — a torn or corrupt tail).
func parseEntry(rest []byte) (kind byte, payloadOff int64, payload []byte, total int64) {
	if len(rest) < 1 {
		return 0, 0, nil, 0
	}
	kind = rest[0]
	plen, n := binary.Uvarint(rest[1:])
	if n <= 0 || kind > 1 {
		return 0, 0, nil, 0
	}
	// A payload cannot extend past the buffer; checking against the
	// remaining length up front also rejects absurd uvarint values that
	// would overflow the int64 arithmetic below.
	if plen > uint64(len(rest)) {
		return 0, 0, nil, 0
	}
	hdr := int64(1 + n)
	total = hdr + int64(plen) + crcSize
	if int64(len(rest)) < total {
		return 0, 0, nil, 0 // torn entry
	}
	payload = rest[hdr : hdr+int64(plen)]
	if binary.LittleEndian.Uint32(rest[hdr+int64(plen):]) != crc32.ChecksumIEEE(rest[:hdr+int64(plen)]) {
		return 0, 0, nil, 0 // corrupt entry: treat like a torn tail
	}
	if used, err := xorRLE(nil, payload); err != nil || used != int(plen) {
		return 0, 0, nil, 0
	}
	return kind, hdr, payload, total
}

// recover scans the file, indexing entries and truncating a torn tail.
// A file without the format marker is refused before anything is
// written to it.
func (cl *CommitLog) recover() error {
	data, err := io.ReadAll(cl.f)
	if err != nil {
		return fmt.Errorf("commitlog: %w", err)
	}
	if len(data) == 0 {
		if _, err := cl.f.WriteAt([]byte{logMagic}, 0); err != nil {
			return fmt.Errorf("commitlog: %w", err)
		}
		cl.end = 1
		return nil
	}
	if data[0] != logMagic {
		return fmt.Errorf("commitlog: %s does not start with the format marker; refusing to open it", cl.path)
	}
	pos := int64(1) // past the format marker
	valid := pos
	for int(pos) < len(data) {
		kind, payloadOff, payload, total := parseEntry(data[pos:])
		if total == 0 {
			break
		}
		e := logEntry{off: pos + payloadOff, size: len(payload)}
		if kind == 0 {
			cl.base = append(cl.base, e)
			// parseEntry has walked the payload: this walk cannot fail
			// halfway and leave last holding part of it.
			if _, err := xorRLE(cl.last, payload); err != nil {
				return fmt.Errorf("commitlog: %w", err)
			}
		} else {
			cl.composite = append(cl.composite, e)
		}
		pos += total
		valid = pos
	}
	if valid < int64(len(data)) {
		if err := cl.f.Truncate(valid); err != nil {
			return fmt.Errorf("commitlog: truncating torn tail: %w", err)
		}
	}
	cl.end = valid
	return cl.rebuildAcc()
}

// rebuildAcc re-establishes the invariant len(composite) ==
// len(base)/fanout and the accumulator of the open run: a crash between
// a base append and its boundary composite append can leave a complete
// run uncovered; recompute and append the missing composite entries.
func (cl *CommitLog) rebuildAcc() error {
	cl.acc = New(0)
	for i := len(cl.composite) * cl.fanout; i < len(cl.base); i++ {
		if err := cl.xorEntry(cl.acc, cl.base[i]); err != nil {
			return err
		}
		if (i+1)%cl.fanout == 0 {
			if err := cl.writeEntry(1, cl.acc, &cl.composite); err != nil {
				return err
			}
			cl.acc = New(0)
		}
	}
	return nil
}

// NumCommits returns the number of commits recorded.
func (cl *CommitLog) NumCommits() int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return len(cl.base)
}

// Size returns the on-disk size of the history file in bytes.
func (cl *CommitLog) Size() (int64, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.end, nil
}

// Append records a commit whose branch bitmap is cur, returning the
// zero-based commit index within this log.
func (cl *CommitLog) Append(cur *Bitmap) (int, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	delta := Xor(cur, cl.last)
	if err := cl.writeEntry(0, delta, &cl.base); err != nil {
		return 0, err
	}
	cl.last = cur.Clone()
	cl.acc.Xor(delta)
	if len(cl.base)%cl.fanout == 0 {
		if err := cl.writeEntry(1, cl.acc, &cl.composite); err != nil {
			return 0, err
		}
		cl.acc = New(0)
	}
	return len(cl.base) - 1, nil
}

// crcSize is the per-entry trailing checksum width.
const crcSize = 4

func (cl *CommitLog) writeEntry(kind byte, bm *Bitmap, index *[]logEntry) error {
	payload := MarshalRLE(bm)
	buf := append(cl.buf[:0], kind)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	hdr := len(buf)
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	cl.buf = buf
	if _, err := cl.f.WriteAt(buf, cl.end); err != nil {
		return fmt.Errorf("commitlog: %w", err)
	}
	*index = append(*index, logEntry{off: cl.end + int64(hdr), size: len(payload)})
	cl.end += int64(len(buf))
	return nil
}

// Truncate drops every commit from index n on, leaving the log as it
// was when it held n commits: Head is commit n-1's bitmap and the next
// Append records commit n. The engines call it at open for commits the
// version graph does not have — the graph's log record is the commit
// point, so an entry past the graph's count belongs to a commit that
// never happened.
func (cl *CommitLog) Truncate(n int) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if n < 0 || n >= len(cl.base) {
		return nil
	}
	// Composite k follows base entry (k+1)*fanout-1, so cutting the file
	// at base entry n keeps exactly the n/fanout composites before it.
	cut := cl.base[n].start()
	if err := cl.f.Truncate(cut); err != nil {
		return fmt.Errorf("commitlog: %w", err)
	}
	cl.end = cut
	cl.base = cl.base[:n]
	cl.composite = cl.composite[:min(len(cl.composite), n/cl.fanout)]
	cl.last = New(0)
	if n > 0 {
		last, err := cl.checkoutLocked(n - 1)
		if err != nil {
			return err
		}
		cl.last = last
	}
	return cl.rebuildAcc()
}

// xorEntry reads entry e through cl.buf and XORs its bitmap into dst.
func (cl *CommitLog) xorEntry(dst *Bitmap, e logEntry) error {
	if cap(cl.buf) < e.size {
		cl.buf = make([]byte, e.size)
	}
	buf := cl.buf[:e.size]
	if _, err := cl.f.ReadAt(buf, e.off); err != nil {
		return fmt.Errorf("commitlog: %w", err)
	}
	used, err := xorRLE(dst, buf)
	if err != nil {
		return err
	}
	if used != e.size {
		return errors.New("commitlog: trailing bytes in entry")
	}
	return nil
}

// entriesRead counts the entries checkouts read from history files: a
// read pinned to a branch's newest commit adds none.
var entriesRead = expvar.NewInt("decibel.commitlog_entries_read")

// Checkout returns a copy of the branch bitmap snapshot at commit index
// i, which the caller owns. The newest commit's is copied from memory;
// an older one is rebuilt by XOR-ing i/fanout composite deltas and the
// remaining base deltas from the file.
func (cl *CommitLog) Checkout(i int) (*Bitmap, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	// Not in checkoutLocked: Truncate resets last and rebuilds it there.
	if i >= 0 && i == len(cl.base)-1 {
		return cl.last.Clone(), nil
	}
	return cl.checkoutLocked(i)
}

func (cl *CommitLog) checkoutLocked(i int) (*Bitmap, error) {
	if i < 0 || i >= len(cl.base) {
		return nil, fmt.Errorf("commitlog: commit %d out of range [0,%d)", i, len(cl.base))
	}
	out := New(0)
	full := (i + 1) / cl.fanout // composite deltas fully covered
	if full > len(cl.composite) {
		full = len(cl.composite)
	}
	entriesRead.Add(int64(full + i + 1 - full*cl.fanout))
	for c := 0; c < full; c++ {
		if err := cl.xorEntry(out, cl.composite[c]); err != nil {
			return nil, err
		}
	}
	for b := full * cl.fanout; b <= i; b++ {
		if err := cl.xorEntry(out, cl.base[b]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Head returns a copy of the bitmap as of the latest commit.
func (cl *CommitLog) Head() *Bitmap {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.last.Clone()
}

// Sync flushes the log to stable storage.
func (cl *CommitLog) Sync() error { return cl.f.Sync() }

// Close closes the underlying file.
func (cl *CommitLog) Close() error { return cl.f.Close() }
