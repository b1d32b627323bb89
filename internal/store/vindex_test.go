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

	// Rewrite: segment 1 is merged into segment 5; its slot 0 is
	// dropped, slot 7 moves to slot 3. Order within the key survives,
	// other segments are untouched.
	ix.Rewrite(func(p Pos) (Pos, bool) {
		switch {
		case p.Seg != 1:
			return p, true
		case p.Slot == 7:
			return Pos{Seg: 5, Slot: 3}, true
		}
		return Pos{}, false
	})
	if ix.Len() != 3 {
		t.Fatalf("Len after rewrite = %d, want 3", ix.Len())
	}
	want = []Pos{{Seg: 5, Slot: 3}, {Seg: 0, Slot: 10}}
	if got := versions(ix, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("after rewrite %v, want %v", got, want)
	}
	if got := versions(ix, 2); !reflect.DeepEqual(got, []Pos{{Seg: 0, Slot: 11}}) {
		t.Fatalf("untouched key moved: %v", got)
	}
	// A key whose every version was dropped disappears.
	ix.Rewrite(func(p Pos) (Pos, bool) { return p, p.Seg != 0 || p.Slot != 11 })
	if got := versions(ix, 2); got != nil || ix.Len() != 2 {
		t.Fatalf("dropped key still has %v (Len %d)", got, ix.Len())
	}
	// Pushing after a rewrite still lands in front.
	ix.Push(1, Pos{Seg: 6, Slot: 0})
	if got := versions(ix, 1); got[0] != (Pos{Seg: 6, Slot: 0}) || len(got) != 3 {
		t.Fatalf("push after rewrite: %v", got)
	}
	if ix.Bytes() <= 0 {
		t.Fatal("Bytes is empty")
	}
}
