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
	if _, ok := ix.Find(1, func(Pos) bool { return true }); ok {
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
	p, ok := ix.Find(1, func(p Pos) bool {
		seen++
		return p.Seg == 1 // accepts the newest, and would the second
	})
	if !ok || p != (Pos{Seg: 1, Slot: 7}) || seen != 1 {
		t.Fatalf("Find = %v %v after %d probes, want newest after 1", p, ok, seen)
	}
	// A branch still on the oldest version walks past the newer ones.
	if p, ok := ix.Find(1, func(p Pos) bool { return p.Seg == 0 }); !ok || p.Slot != 10 {
		t.Fatalf("Find(oldest) = %v %v", p, ok)
	}
	if _, ok := ix.Find(1, func(Pos) bool { return false }); ok {
		t.Fatal("key live nowhere resolved")
	}

	if ix.Bytes() <= 0 {
		t.Fatal("Bytes is empty")
	}
}
