// Package wal implements the write-ahead log that makes Decibel's
// version-control operations (commit, branch, merge) durable, per
// Section 2.1: "fault tolerance and recovery can be done by employing
// standard write-ahead logging techniques on writes".
//
// The log is a single append-only file of CRC-protected records:
//
//	record := lsn(uvarint) | kind(1) | len(uvarint) | payload | crc32(4)
//
// Its one user is the version graph (internal/vgraph), which appends a
// record per operation and replays them over its last snapshot at open;
// the storage engines keep their own files and log nothing here. Replay
// stops at the first corrupt or torn record and truncates the tail, so
// a crash mid-append never exposes a partial record.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// Kind tags what a record describes. The WAL treats payloads as opaque.
type Kind byte

// Record kinds. Begin/Data/Commit frame an AppendGroup, which no
// dataset writer appends; the version graph's replay skips them. The
// graph kinds carry the JSON of one vgraph.Commit or vgraph.Branch.
const (
	KindBegin       Kind = 1 // begin of a multi-record group
	KindData        Kind = 2 // group payload
	KindCommit      Kind = 3 // end of group
	KindGraphCommit Kind = 5 // a new commit; implies its branch's new head
	KindGraphBranch Kind = 6 // a created or re-flagged branch
)

// Record is one durable log record.
type Record struct {
	LSN     uint64
	Kind    Kind
	Payload []byte
	End     int64 // file offset just past the record (a valid Truncate size)
}

// Log is an append-only write-ahead log. Safe for concurrent use.
type Log struct {
	mu      sync.Mutex
	f       *os.File
	nextLSN uint64
	size    int64
	buf     []byte // reused encode buffer
}

// Open opens (creating if absent) the log at path and recovers its
// valid prefix, truncating any torn tail.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{f: f, nextLSN: 1}
	if err := l.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

func (l *Log) recover() error {
	data, err := io.ReadAll(l.f)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	valid := 0
	for valid < len(data) {
		rec, n, err := decodeRecord(data[valid:])
		if err != nil {
			break
		}
		l.nextLSN = rec.LSN + 1
		valid += n
	}
	if valid < len(data) {
		if err := l.f.Truncate(int64(valid)); err != nil {
			return fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	l.size = int64(valid)
	return nil
}

// decodeRecord decodes the record at the front of data; its payload
// aliases data.
func decodeRecord(data []byte) (Record, int, error) {
	lsn, n1 := binary.Uvarint(data)
	if n1 <= 0 {
		return Record{}, 0, io.ErrUnexpectedEOF
	}
	pos := n1
	if pos >= len(data) {
		return Record{}, 0, io.ErrUnexpectedEOF
	}
	kind := Kind(data[pos])
	pos++
	plen, n2 := binary.Uvarint(data[pos:])
	if n2 <= 0 {
		return Record{}, 0, io.ErrUnexpectedEOF
	}
	pos += n2
	// Compared against the remaining length first: an absurd uvarint
	// would overflow the addition below.
	if plen > uint64(len(data)) || len(data) < pos+int(plen)+4 {
		return Record{}, 0, io.ErrUnexpectedEOF
	}
	payload := data[pos : pos+int(plen)]
	pos += int(plen)
	want := binary.LittleEndian.Uint32(data[pos:])
	got := crc32.ChecksumIEEE(data[:pos])
	if want != got {
		return Record{}, 0, fmt.Errorf("wal: bad crc")
	}
	pos += 4
	return Record{LSN: lsn, Kind: kind, Payload: payload}, pos, nil
}

// encodeLocked appends one framed record to l.buf, taking the next LSN.
func (l *Log) encodeLocked(kind Kind, payload []byte) {
	start := len(l.buf)
	l.buf = binary.AppendUvarint(l.buf, l.nextLSN)
	l.buf = append(l.buf, byte(kind))
	l.buf = binary.AppendUvarint(l.buf, uint64(len(payload)))
	l.buf = append(l.buf, payload...)
	l.buf = binary.LittleEndian.AppendUint32(l.buf, crc32.ChecksumIEEE(l.buf[start:]))
	l.nextLSN++
}

// flushLocked writes l.buf at the end of the log with one write. On
// failure the LSNs the buffer took are given back.
func (l *Log) flushLocked(records uint64) error {
	_, err := l.f.WriteAt(l.buf, l.size)
	if err != nil {
		l.nextLSN -= records
		return fmt.Errorf("wal: %w", err)
	}
	l.size += int64(len(l.buf))
	return nil
}

// Append appends one record with a single write and returns its LSN.
// The record is written but not fsynced; call Sync for durability.
func (l *Log) Append(kind Kind, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = l.buf[:0]
	l.encodeLocked(kind, payload)
	if err := l.flushLocked(1); err != nil {
		return 0, err
	}
	return l.nextLSN - 1, nil
}

// AppendGroup appends Begin, the payloads as Data records, and Commit
// as one buffer with a single write, returning the Commit record's LSN.
func (l *Log) AppendGroup(payloads ...[]byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = l.buf[:0]
	l.encodeLocked(KindBegin, nil)
	for _, p := range payloads {
		l.encodeLocked(KindData, p)
	}
	l.encodeLocked(KindCommit, nil)
	if err := l.flushLocked(uint64(len(payloads)) + 2); err != nil {
		return 0, err
	}
	return l.nextLSN - 1, nil
}

// Replay calls fn for every record from the start of the log. A
// record's payload is only valid during the call.
func (l *Log) Replay(fn func(Record) error) error {
	l.mu.Lock()
	size := l.size
	l.mu.Unlock()
	data := make([]byte, size)
	if _, err := l.f.ReadAt(data, 0); err != nil && err != io.EOF {
		return fmt.Errorf("wal: %w", err)
	}
	pos := 0
	for pos < len(data) {
		rec, n, err := decodeRecord(data[pos:])
		if err != nil {
			return nil // torn tail: recovery already bounded size
		}
		pos += n
		rec.End = int64(pos)
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// Size returns the log size in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Sync fsyncs the log.
func (l *Log) Sync() error { return l.f.Sync() }

// Truncate cuts the log to its first size bytes, which must end on a
// record boundary (a Record.End, or 0 to discard the whole log after a
// checkpoint). LSNs keep counting up.
func (l *Log) Truncate(size int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if size >= l.size {
		return nil
	}
	if err := l.f.Truncate(size); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.size = size
	return nil
}

// Close closes the log file.
func (l *Log) Close() error { return l.f.Close() }
