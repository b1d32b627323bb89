package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 10; i++ {
		lsn, err := l.Append(KindData, []byte(fmt.Sprintf("payload-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
	}
	var got []string
	if err := l.Replay(func(r Record) error {
		got = append(got, string(r.Payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != "payload-0" || got[9] != "payload-9" {
		t.Fatalf("replayed %v", got)
	}
}

func TestReopenContinuesLSN(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, _ := Open(path)
	l.Append(KindData, []byte("a"))
	l.Append(KindData, []byte("b"))
	l.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	lsn, err := l2.Append(KindData, []byte("c"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 3 {
		t.Fatalf("lsn after reopen = %d, want 3", lsn)
	}
	count := 0
	l2.Replay(func(Record) error { count++; return nil })
	if count != 3 {
		t.Fatalf("replayed %d records", count)
	}
}

func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, _ := Open(path)
	l.Append(KindData, []byte("complete"))
	l.Append(KindData, bytes.Repeat([]byte("x"), 100))
	l.Close()

	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:len(data)-7], 0o644)

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var payloads []string
	l2.Replay(func(r Record) error { payloads = append(payloads, string(r.Payload)); return nil })
	if len(payloads) != 1 || payloads[0] != "complete" {
		t.Fatalf("after torn tail: %v", payloads)
	}
	// New appends go after the valid prefix.
	if _, err := l2.Append(KindData, []byte("post")); err != nil {
		t.Fatal(err)
	}
	payloads = nil
	l2.Replay(func(r Record) error { payloads = append(payloads, string(r.Payload)); return nil })
	if len(payloads) != 2 || payloads[1] != "post" {
		t.Fatalf("after recovery append: %v", payloads)
	}
}

func TestCorruptMiddleStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, _ := Open(path)
	l.Append(KindData, []byte("one"))
	off := l.Size()
	l.Append(KindData, []byte("two"))
	l.Close()

	// Flip a byte inside the second record.
	f, _ := os.OpenFile(path, os.O_RDWR, 0)
	f.WriteAt([]byte{0xFF}, off+3)
	f.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	count := 0
	l2.Replay(func(Record) error { count++; return nil })
	if count != 1 {
		t.Fatalf("replayed %d records past corruption", count)
	}
}

// A group is framed as separate records but written as one buffer.
func TestGroupIsOneBuffer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, _ := Open(path)
	lsn, err := l.AppendGroup([]byte("g1a"), []byte("g1b"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 4 {
		t.Fatalf("group of two payloads ended at lsn %d, want 4", lsn)
	}
	whole := l.Size()
	l.Close()

	// Begin, two Data, Commit — in order, each ending where the next starts.
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []Kind
	var end int64
	l2.Replay(func(r Record) error {
		kinds = append(kinds, r.Kind)
		if r.End <= end {
			t.Fatalf("record end %d not past %d", r.End, end)
		}
		end = r.End
		return nil
	})
	l2.Close()
	if fmt.Sprint(kinds) != fmt.Sprint([]Kind{KindBegin, KindData, KindData, KindCommit}) || end != whole {
		t.Fatalf("replayed kinds %v ending at %d of %d", kinds, end, whole)
	}

	// A group torn anywhere inside its single buffer is cut back to the
	// records that are whole.
	data, _ := os.ReadFile(path)
	for cut := 0; cut < len(data); cut++ {
		os.WriteFile(path, data[:cut], 0o644)
		l3, err := Open(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		n := 0
		l3.Replay(func(r Record) error {
			if r.Kind != kinds[n] {
				t.Fatalf("cut %d: record %d has kind %d", cut, n, r.Kind)
			}
			n++
			return nil
		})
		if l3.Size() > int64(cut) {
			t.Fatalf("cut %d: recovered size %d", cut, l3.Size())
		}
		l3.Close()
	}
}

func TestTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, _ := Open(path)
	defer l.Close()
	l.Append(KindData, []byte("x"))
	first := l.Size()
	l.Append(KindData, []byte("y"))
	if err := l.Truncate(first); err != nil {
		t.Fatal(err)
	}
	var got []string
	l.Replay(func(r Record) error { got = append(got, string(r.Payload)); return nil })
	if len(got) != 1 || got[0] != "x" || l.Size() != first {
		t.Fatalf("after truncating to the first record: %v, size %d", got, l.Size())
	}
	// Appends continue at the cut, with LSNs still counting up.
	if lsn, err := l.Append(KindData, []byte("z")); err != nil || lsn != 3 {
		t.Fatalf("append after truncate: lsn %d, %v", lsn, err)
	}
	if err := l.Truncate(0); err != nil {
		t.Fatal(err)
	}
	count := 0
	l.Replay(func(Record) error { count++; return nil })
	if count != 0 || l.Size() != 0 {
		t.Fatal("records survive truncate")
	}
}

func BenchmarkWALAppend(b *testing.B) {
	l, err := Open(filepath.Join(b.TempDir(), "wal"))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte("p"), 128)
	b.ReportAllocs()
	b.SetBytes(128)
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(KindData, payload); err != nil {
			b.Fatal(err)
		}
	}
}
