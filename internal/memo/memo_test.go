package memo

import (
	"strconv"
	"sync"
	"testing"
)

func has[V any](m *Memo[V], key string) bool {
	_, ok := m.Get(key)
	return ok
}

func TestFIFOEvictsOldestFirst(t *testing.T) {
	m := New[int](1, 3)
	for i := 0; i < 5; i++ {
		m.Put(strconv.Itoa(i), i)
	}
	for i, want := range []bool{false, false, true, true, true} {
		if has(m, strconv.Itoa(i)) != want {
			t.Fatalf("entry %d present = %v, want %v", i, !want, want)
		}
	}
	if v, _ := m.Get("4"); v != 4 {
		t.Fatalf("Get(4) = %d", v)
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
}

func TestPutKeepsFirstValueAndPosition(t *testing.T) {
	m := New[int](1, 2)
	m.Put("a", 1)
	m.Put("b", 2)
	m.Put("a", 9) // present: neither replaced nor moved to the back
	if v, _ := m.Get("a"); v != 1 {
		t.Fatalf("re-Put replaced the value: %d", v)
	}
	m.Put("c", 3)
	if has(m, "a") || !has(m, "b") || !has(m, "c") {
		t.Fatal("re-Put moved the entry in the eviction order")
	}
}

func TestCostBudget(t *testing.T) {
	m := NewCosted(1, 100, 10, 6, func(v int) int { return v })
	m.Put("a", 4)
	m.Put("b", 4)
	m.Put("c", 3) // 11 > 10: evicts a
	if has(m, "a") || !has(m, "b") || !has(m, "c") {
		t.Fatal("cost budget did not evict the oldest entry")
	}
	m.Put("d", 6) // 13 > 10: evicts b
	if has(m, "b") || !has(m, "c") || !has(m, "d") {
		t.Fatal("cost budget did not evict down to the budget")
	}
}

func TestOversizedEntriesAreSkipped(t *testing.T) {
	m := NewCosted(1, 100, 10, 6, func(v int) int { return v })
	m.Put("small", 2)
	m.Put("huge", 7)
	if has(m, "huge") {
		t.Fatal("an entry over the per-entry maximum was stored")
	}
	if !has(m, "small") {
		t.Fatal("skipping an oversized entry evicted another")
	}
	if !m.Admits(6) || m.Admits(7) {
		t.Fatal("Admits disagrees with what Put stores")
	}
	if !New[int](1, 1).Admits(1 << 40) {
		t.Fatal("a memo without costs refuses a cost")
	}
}

func TestShardsIsPowerOfTwoAtLeastMin(t *testing.T) {
	for _, lo := range []int{1, 16, 32, 256} {
		if n := Shards(lo); n < lo || n > 256 || n&(n-1) != 0 {
			t.Fatalf("Shards(%d) = %d", lo, n)
		}
	}
}

// TestConcurrentGetPutDelete hits one memo from several goroutines at once,
// its puts deleting entries by eviction; run it under -race. Every value
// read back must be the one its key maps to, and the bounds must hold
// afterwards.
func TestConcurrentGetPutDelete(t *testing.T) {
	const shards, entries, budget = 4, 8, 40
	m := NewCosted(shards, entries, budget, 10, func(v int) int { return v % 11 })
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (i*7 + w) % 97
				key := strconv.Itoa(k)
				if v, ok := m.Get(key); ok && v != k {
					t.Errorf("Get(%s) = %d", key, v)
					return
				}
				m.Put(key, k)
			}
		}(w)
	}
	wg.Wait()
	if n := m.Len(); n > shards*entries {
		t.Fatalf("Len = %d over the %d-entry bound", n, shards*entries)
	}
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		sum := 0
		for _, e := range s.m {
			sum += e.cost
		}
		cost, fifo, n := s.cost, len(s.fifo), len(s.m)
		s.mu.RUnlock()
		if sum != cost || cost > budget || fifo != n {
			t.Fatalf("shard %d: cost %d (summed %d, budget %d), fifo %d, entries %d",
				i, cost, sum, budget, fifo, n)
		}
	}
}
