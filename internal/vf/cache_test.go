package vf

import (
	"slices"
	"testing"
)

// lruKeys returns the cached keys, most recently used first.
func lruKeys(c *lru[string, []int]) []string {
	var keys []string
	for el := c.order.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*lruEntry[string, []int]).key)
	}
	return keys
}

func TestLRU(t *testing.T) {
	newCache := func(budget int) *lru[string, []int] {
		return newLRU[string](budget, func(v []int) int { return len(v) })
	}
	expect := func(t *testing.T, c *lru[string, []int], resident int, keys ...string) {
		t.Helper()
		if got := lruKeys(c); !slices.Equal(got, keys) {
			t.Fatalf("keys (most recent first) = %v, want %v", got, keys)
		}
		if c.resident != resident || len(c.entries) != len(keys) {
			t.Fatalf("resident = %d over %d entries, want %d over %d", c.resident, len(c.entries), resident, len(keys))
		}
	}

	t.Run("evicts least recently used by weight", func(t *testing.T) {
		c := newCache(10)
		c.put("a", make([]int, 4))
		c.put("b", make([]int, 4))
		if _, ok := c.get("a"); !ok { // a is now more recent than b
			t.Fatal("a missing")
		}
		_, _, before, _ := CacheCounters()
		c.put("c", make([]int, 4)) // 12 > 10: b goes
		expect(t, c, 8, "c", "a")
		if _, _, after, _ := CacheCounters(); after != before+1 {
			t.Fatalf("evictions moved by %d, want 1", after-before)
		}
		if _, ok := c.get("b"); ok {
			t.Fatal("evicted b still cached")
		}
		c.put("a", make([]int, 1)) // a replaced entry takes its new weight
		expect(t, c, 5, "a", "c")
	})

	t.Run("zero weight counts as one", func(t *testing.T) {
		c := newCache(2)
		c.put("x", nil)
		c.put("y", nil)
		expect(t, c, 2, "y", "x")
		c.put("z", nil)
		expect(t, c, 2, "z", "y")
	})

	t.Run("entry just put is never evicted", func(t *testing.T) {
		c := newCache(3)
		c.put("big", make([]int, 10))
		expect(t, c, 10, "big")
		c.put("a", make([]int, 1))
		expect(t, c, 1, "a")
		c.put("huge", make([]int, 20))
		expect(t, c, 20, "huge")
		if v, ok := c.get("huge"); !ok || len(v) != 20 {
			t.Fatal("huge not served")
		}
	})

	t.Run("drop", func(t *testing.T) {
		c := newCache(100)
		for _, k := range []string{"p1", "q1", "p2", "q2"} {
			c.put(k, make([]int, 2))
		}
		c.drop(func(k string) bool { return k[0] == 'p' })
		expect(t, c, 4, "q2", "q1")
		c.drop(func(string) bool { return true })
		expect(t, c, 0)
		c.put("r", make([]int, 3))
		expect(t, c, 3, "r")
	})
}
