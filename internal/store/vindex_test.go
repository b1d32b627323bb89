package store

import (
	"reflect"
	"testing"
)

// versions returns pk's positions in walk order.
func versions(ix *VersionIndex, pk int64) []Pos {
	var out []Pos
	ix.Find(pk, func(p Pos) bool {
		out = append(out, p)
		return false
	})
	return out
}

func TestVersionIndex(t *testing.T) {
	ix := NewVersionIndex(0)
	if ix.Find(1, func(Pos) bool { return true }) != NoPos {
		t.Fatal("empty index resolves a key")
	}
	// Key 1 has three versions across two segments, key 2 one.
	ix.Push(1, Pos{Seg: 0, Slot: 10})
	ix.Push(2, Pos{Seg: 0, Slot: 11})
	ix.Push(1, Pos{Seg: 1, Slot: 0})
	ix.Push(1, Pos{Seg: 1, Slot: 7})
	if ix.Len() != 4 {
		t.Fatalf("Len = %d, want 4", ix.Len())
	}
	want := []Pos{{Seg: 1, Slot: 7}, {Seg: 1, Slot: 0}, {Seg: 0, Slot: 10}}
	if got := versions(ix, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("walk order %v, want newest first %v", got, want)
	}

	// The walk stops at the first position the liveness test accepts.
	seen := 0
	p := ix.Find(1, func(p Pos) bool {
		seen++
		return p.Seg == 1 // accepts the newest, and would the second
	})
	if p != (Pos{Seg: 1, Slot: 7}) || seen != 1 {
		t.Fatalf("Find = %v after %d probes, want newest after 1", p, seen)
	}
	// A branch still on the oldest version walks past the newer ones.
	if p := ix.Find(1, func(p Pos) bool { return p.Seg == 0 }); p != (Pos{Seg: 0, Slot: 10}) {
		t.Fatalf("Find(oldest) = %v", p)
	}
	if ix.Find(1, func(Pos) bool { return false }) != NoPos {
		t.Fatal("key live nowhere resolved")
	}

	if ix.Bytes() <= 0 {
		t.Fatal("Bytes is empty")
	}
}
