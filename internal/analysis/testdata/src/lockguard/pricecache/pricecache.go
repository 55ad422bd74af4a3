// Package pricecache is a dancevet fixture for lockguard: the positive
// cases reproduce PR 1's unsynchronized price-memo map and PR 2's
// concurrent-Acquire race.
package pricecache

import "sync"

type Memo struct {
	mu sync.RWMutex
	// m memoizes Price() results. guarded by mu
	m map[string]float64

	total float64 // guarded by mu

	hits int // unannotated: lockguard leaves it alone
}

func (c *Memo) GetLocked(key string) (float64, bool) {
	c.mu.RLock()
	v, ok := c.m[key]
	c.mu.RUnlock()
	return v, ok
}

func (c *Memo) PutLocked(key string, v float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = v
	c.total += v
}

// GetRacy is the seeded reproduction of the PR 1 price-memo race.
func (c *Memo) GetRacy(key string) float64 {
	return c.m[key] // want `read of c\.m, guarded by mu, without holding it`
}

func (c *Memo) PutRacy(key string, v float64) {
	c.m[key] = v // want `write to c\.m, guarded by mu, without holding it exclusively`
}

// PutUnderRLock holds the wrong privilege: readers may run concurrently.
func (c *Memo) PutUnderRLock(key string, v float64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.m[key] = v // want `RLock is not enough for writes`
}

func (c *Memo) EarlyUnlockBranch(key string) float64 {
	c.mu.Lock()
	if key == "" {
		c.mu.Unlock()
		return 0
	}
	v := c.m[key]
	c.mu.Unlock()
	return v
}

func (c *Memo) AfterUnlock(key string) float64 {
	c.mu.Lock()
	c.mu.Unlock()
	return c.m[key] // want `read of c\.m, guarded by mu, without holding it`
}

// GoroutineRace: the closure runs after Unlock may already have happened —
// holding the lock at `go` time proves nothing.
func (c *Memo) GoroutineRace(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		_ = c.m[key] // want `read of c\.m, guarded by mu, without holding it`
	}()
}

// NewMemo touches c.m lock-free on a freshly constructed value, which is
// safe: no other goroutine can hold a reference yet.
func NewMemo() *Memo {
	c := &Memo{}
	c.m = make(map[string]float64)
	return c
}

func (c *Memo) Reset() {
	//dancevet:ignore lockguard caller holds mu across the whole rebuild
	c.m = nil
}

type shard struct {
	mu sync.Mutex
	n  int // guarded by mu
}

type Sharded struct {
	shards [4]shard
}

func (s *Sharded) Bump(i int) {
	sh := &s.shards[i]
	sh.mu.Lock()
	sh.n++
	sh.mu.Unlock()
}

func (s *Sharded) BumpRacy(i int) {
	sh := &s.shards[i]
	sh.n++ // want `write to sh\.n, guarded by mu, without holding it exclusively`
}

// installLocked follows the runtime's xLocked idiom: the caller holds mu.
func (c *Memo) installLocked(key string, v float64) {
	c.m[key] = v
	c.total += v
}

func (c *Memo) Install(key string, v float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.installLocked(key, v)
}

// scratchPool reproduces the columnar gather-buffer pool shape: a
// hand-rolled free list guarded by a mutex, plus reuse statistics.
type scratchPool struct {
	mu   sync.Mutex
	free [][]float64 // guarded by mu
	hits int         // guarded by mu
}

func (p *scratchPool) Get(n int) []float64 {
	p.mu.Lock()
	if k := len(p.free); k > 0 {
		buf := p.free[k-1]
		p.free = p.free[:k-1]
		p.hits++
		p.mu.Unlock()
		return buf[:0]
	}
	p.mu.Unlock()
	return make([]float64, 0, n)
}

func (p *scratchPool) Put(buf []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, buf)
}

// PutRacy is the pooled-buffer hazard: returning a buffer to the free list
// without the lock tears the slice header under concurrent Gets.
func (p *scratchPool) PutRacy(buf []float64) {
	p.free = append(p.free, buf) // want `write to p\.free, guarded by mu, without holding it exclusively` `read of p\.free, guarded by mu, without holding it`
}

func (p *scratchPool) HitsRacy() int {
	return p.hits // want `read of p\.hits, guarded by mu, without holding it`
}

// withScratch needs no annotations: sync.Pool synchronizes internally and
// the buffer is owned by exactly one goroutine between Get and Put.
var scratch = sync.Pool{New: func() any { return make([]float64, 0, 64) }}

func withScratch(n int, f func([]float64)) {
	buf := scratch.Get().([]float64)
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	f(buf[:n])
	scratch.Put(buf[:0])
}

// Shard is generic: accesses inside its methods select instantiated copies
// of the annotated fields, which must resolve to the declared ones.
type Shard[V any] struct {
	mu sync.RWMutex
	m  map[string]V // guarded by mu
}

func (s *Shard[V]) Get(key string) (V, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.m[key]
	return v, ok
}

func (s *Shard[V]) Racy(key string) V {
	return s.m[key] // want `read of s\.m, guarded by mu, without holding it`
}
