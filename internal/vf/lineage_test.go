package vf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSpanSetSubtractEmpty(t *testing.T) {
	var ss spanSet
	got := ss.subtract(3, 10)
	if len(got) != 1 || got[0] != (span{3, 10}) {
		t.Fatalf("subtract on empty = %v", got)
	}
	if got := ss.subtract(5, 5); len(got) != 0 {
		t.Fatalf("empty range = %v", got)
	}
}

func TestSpanSetSubtractPieces(t *testing.T) {
	var ss spanSet
	ss.add(10, 20)
	ss.add(30, 40)
	cases := []struct {
		from, to int64
		want     []span
	}{
		{0, 5, []span{{0, 5}}},                       // fully outside
		{10, 20, nil},                                // fully covered
		{12, 18, nil},                                // inside covered
		{5, 15, []span{{5, 10}}},                     // left overhang
		{15, 25, []span{{20, 25}}},                   // right overhang
		{5, 45, []span{{5, 10}, {20, 30}, {40, 45}}}, // spans both holes
		{20, 30, []span{{20, 30}}},                   // exactly the gap
		{40, 50, []span{{40, 50}}},                   // after everything
	}
	for _, c := range cases {
		got := ss.subtract(c.from, c.to)
		if len(got) != len(c.want) {
			t.Fatalf("subtract(%d,%d) = %v, want %v", c.from, c.to, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("subtract(%d,%d) = %v, want %v", c.from, c.to, got, c.want)
			}
		}
	}
}

func TestSpanSetAddMerges(t *testing.T) {
	var ss spanSet
	ss.add(10, 20)
	ss.add(30, 40)
	ss.add(15, 35) // bridges both
	if len(ss.spans) != 1 || ss.spans[0] != (span{10, 40}) {
		t.Fatalf("spans = %v", ss.spans)
	}
	ss.add(40, 50) // adjacency absorbs
	if len(ss.spans) != 1 || ss.spans[0] != (span{10, 50}) {
		t.Fatalf("adjacent add: %v", ss.spans)
	}
	ss.add(60, 60) // empty: no-op
	if len(ss.spans) != 1 {
		t.Fatalf("empty add changed set: %v", ss.spans)
	}
	ss.add(0, 5)
	if len(ss.spans) != 2 || ss.spans[0] != (span{0, 5}) {
		t.Fatalf("prepend: %v", ss.spans)
	}
}

// Property: a spanSet behaves like a boolean array under add/subtract.
func TestQuickSpanSetVsModel(t *testing.T) {
	const n = 128
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var ss spanSet
		var model [n]bool
		for op := 0; op < 40; op++ {
			a := int64(r.Intn(n))
			b := a + int64(r.Intn(n-int(a)))
			// subtract must return exactly the uncovered sub-ranges.
			pieces := ss.subtract(a, b)
			covered := make([]bool, n)
			for _, p := range pieces {
				if p.from >= p.to {
					return false
				}
				for i := p.from; i < p.to; i++ {
					if covered[i] {
						return false // overlapping pieces
					}
					covered[i] = true
				}
			}
			for i := a; i < b; i++ {
				if model[i] == covered[i] {
					return false // covered bits must be the complement of the model within [a,b)
				}
			}
			ss.add(a, b)
			for i := a; i < b; i++ {
				model[i] = true
			}
		}
		// Final consistency: spans sorted, disjoint, matching the model.
		var prev span
		for i, sp := range ss.spans {
			if sp.from >= sp.to {
				return false
			}
			if i > 0 && sp.from < prev.to {
				return false
			}
			prev = sp
		}
		got := make([]bool, n)
		for _, sp := range ss.spans {
			for i := sp.from; i < sp.to && i < n; i++ {
				got[i] = true
			}
		}
		for i := 0; i < n; i++ {
			if got[i] != model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
