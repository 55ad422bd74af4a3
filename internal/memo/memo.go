// Package memo is the bounded, concurrency-safe memo behind every cache of
// pure-function results on the serving path: metric evaluations, projected
// views, join indexes, FD refinements and projection prices, which live as
// long as the process or a join graph, and each search's own join prefixes,
// which die with the search. A memoized value is a function
// of its key, so evicting an entry or storing a racing twin never changes a
// result; it only costs a recomputation.
//
// Keys are strings, which callers build injectively (safekey.Join), spread
// over a power-of-two number of shards by FNV-1a. Reads take the shard's
// read lock. Each shard evicts first-in first-out, by entry count and,
// optionally, by a summed per-entry cost; an entry that alone costs more
// than a set maximum is never stored.
package memo

import (
	"runtime"
	"sync"
)

// Memo maps string keys to memoized values. The zero value is not usable;
// build one with New or NewCosted.
type Memo[V any] struct {
	shards  []shard[V]  // len is a power of two, fixed at construction
	entries int         // per-shard entry cap
	budget  int         // per-shard summed cost cap
	maxCost int         // an entry costing more is never stored
	cost    func(V) int // nil: every entry costs 0
}

type entry[V any] struct {
	v    V
	cost int
}

type shard[V any] struct {
	mu   sync.RWMutex        // lockorder: leaf
	m    map[string]entry[V] // guarded by mu
	fifo []string            // insertion order of m's keys; guarded by mu
	cost int                 // summed cost of m's entries; guarded by mu
}

// New returns a memo of shards shards (rounded up to a power of two), each
// holding at most entries values.
func New[V any](shards, entries int) *Memo[V] {
	return NewCosted[V](shards, entries, 0, 0, nil)
}

// NewCosted is New with a cost budget: each shard also holds values whose
// summed cost is at most budget, and a value costing more than maxCost is
// never stored. cost must be a pure function of the value.
func NewCosted[V any](shards, entries, budget, maxCost int, cost func(V) int) *Memo[V] {
	p := 1
	for p < shards {
		p <<= 1
	}
	m := &Memo[V]{shards: make([]shard[V], p), entries: entries, budget: budget, maxCost: maxCost, cost: cost}
	for i := range m.shards {
		m.shards[i].m = make(map[string]entry[V])
	}
	return m
}

// Shards sizes a contended memo off the machine: the next power of two
// ≥ 4×GOMAXPROCS, clamped to [minShards, 256]. Intra-chain segmentation
// means up to GOMAXPROCS goroutines hit a search memo at once even for a
// single candidate; 4× that head-room keeps the collision probability of
// two hot keys landing on one shard low, and the floor keeps a 1-CPU box
// at the caller's minimum.
func Shards(minShards int) int {
	want := 4 * runtime.GOMAXPROCS(0)
	n := minShards
	for n < want && n < 256 {
		n <<= 1
	}
	return n
}

func (m *Memo[V]) shard(key string) *shard[V] {
	h := uint32(2166136261) // FNV-1a, inlined so the lookup does not allocate
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &m.shards[h&uint32(len(m.shards)-1)]
}

// Get returns the value memoized under key, if any.
func (m *Memo[V]) Get(key string) (V, bool) {
	s := m.shard(key)
	s.mu.RLock()
	e, ok := s.m[key]
	s.mu.RUnlock()
	return e.v, ok
}

// Admits reports whether a value costing cost can be stored: false past
// the maximum cost of a costed memo, true in any other memo.
func (m *Memo[V]) Admits(cost int) bool {
	return m.cost == nil || cost <= m.maxCost
}

// Put memoizes v under key unless key is already present (the first of two
// racing computations wins; both are the same value). It then evicts the
// shard's oldest entries past the entry cap or the cost budget.
func (m *Memo[V]) Put(key string, v V) {
	c := 0
	if m.cost != nil {
		c = m.cost(v)
		if !m.Admits(c) {
			return
		}
	}
	s := m.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[key]; ok {
		return
	}
	s.m[key] = entry[V]{v: v, cost: c}
	s.fifo = append(s.fifo, key)
	s.cost += c
	for len(s.fifo) > m.entries || s.cost > m.budget {
		s.cost -= s.m[s.fifo[0]].cost
		delete(s.m, s.fifo[0])
		s.fifo = s.fifo[1:]
	}
}

// Len reports the number of memoized values.
func (m *Memo[V]) Len() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}
