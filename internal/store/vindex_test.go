package store

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"decibel/internal/heap"
	"decibel/internal/record"
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

// TestVersionIndexEach: the iteration visits every pushed position
// exactly once, calls each key once with all of its positions, and
// lists them newest first.
func TestVersionIndexEach(t *testing.T) {
	ix := NewVersionIndex(0)
	pushed := make(map[int64][]Pos) // pk -> positions, oldest first
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		pk, p := rng.Int63n(40), Pos{Seg: int32(rng.Intn(4)), Slot: int64(i)}
		ix.Push(pk, p)
		pushed[pk] = append(pushed[pk], p)
	}
	seen := make(map[int64]bool)
	visited := 0
	ix.Each(func(pk int64, ps []Pos) {
		if seen[pk] {
			t.Fatalf("key %d visited twice", pk)
		}
		seen[pk] = true
		visited += len(ps)
		want := slices.Clone(pushed[pk])
		slices.Reverse(want)
		if !slices.Equal(ps, want) {
			t.Fatalf("key %d: %v, want newest first %v", pk, ps, want)
		}
	})
	if len(seen) != len(pushed) || visited != 500 || visited != ix.Len() {
		t.Fatalf("visited %d keys and %d positions, pushed %d keys and 500 positions", len(seen), visited, len(pushed))
	}
}

// TestCatalogVersionsTombstones: the open pass indexes every stored
// slot, tombstones included, and reports exactly the tombstone
// positions to its callback; without one (the bitmap engines) it
// indexes the same positions.
func TestCatalogVersionsTombstones(t *testing.T) {
	schema := testSchema(t)
	st := New(heap.NewPool(8, 1<<16), record.NewHistory(schema))
	cat := NewCatalog[*Entry](st, t.TempDir(), false, "", false, nil)
	defer cat.Close(false)
	var tombs []Pos
	for id := int32(0); id < 2; id++ {
		if err := cat.Add(&Entry{ID: id}, schema.NumColumns()); err != nil {
			t.Fatal(err)
		}
		seg := cat.Segs[id].Segment
		for pk := int64(0); pk < 20; pk++ {
			if _, err := st.Append(seg, mkRec(t, schema, pk, pk, 0, "s")); err != nil {
				t.Fatal(err)
			}
			if id == 1 && pk%3 == 0 {
				slot, err := seg.AppendTombstone(pk)
				if err != nil {
					t.Fatal(err)
				}
				tombs = append(tombs, Pos{Seg: id, Slot: slot})
			}
		}
	}
	var got []Pos
	ix, err := cat.Versions(func(p Pos) { got = append(got, p) })
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, tombs) {
		t.Fatalf("tombstones reported %v, want %v", got, tombs)
	}
	if want := 40 + len(tombs); ix.Len() != want {
		t.Fatalf("index holds %d positions, want every stored slot, %d", ix.Len(), want)
	}
	// Key 3's copies, newest first: its tombstone, its copy in segment
	// 1, its copy in segment 0.
	if got, want := versions(ix, 3), []Pos{{Seg: 1, Slot: 5}, {Seg: 1, Slot: 4}, {Seg: 0, Slot: 3}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("key 3: %v, want %v", got, want)
	}
	plain, err := cat.Versions(nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Len() != ix.Len() || !reflect.DeepEqual(versions(plain, 3), versions(ix, 3)) {
		t.Fatal("the pass without a tombstone callback indexes other positions")
	}
}
