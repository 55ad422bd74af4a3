package search

import (
	"strings"
	"sync"

	"github.com/dance-db/dance/internal/relation"
)

// prefixCache is a sharded, size-capped cache of accumulated columnar join
// prefixes, implementing sampling.PrefixCache. MCMC neighbors differ in one
// edge variant, so candidate paths share long spine prefixes; caching the
// intermediate after each hop lets a neighbor re-join only the suffix
// behind its changed edge. Keys are produced by the sampling package and
// cover the path-prefix fingerprint plus the sampling options' CacheKey —
// equal spines evaluated under different η/ρ/seed produce different tables
// and must not share entries.
//
// The cache is bounded (FIFO per shard) both by entry count and by a total
// row budget — entries are whole join intermediates, which are unbounded
// when η re-sampling is off — and oversized intermediates are never cached
// at all. Evicting or skipping an entry only costs a re-join, never
// correctness.
const (
	prefixCacheShardCap = 48
	// prefixCacheShardRowBudget bounds the summed NumRows of a shard's
	// entries (~16 MB of codes per shard at 4 typical uint32 columns).
	prefixCacheShardRowBudget = 1 << 20
	// prefixEntryMaxRows keeps any single huge intermediate from churning
	// the whole shard.
	prefixEntryMaxRows = prefixCacheShardRowBudget / 4
)

type prefixCache struct {
	shards []prefixShard // len is a power of two (cacheShardCount), fixed at construction
}

type prefixShard struct {
	mu   sync.Mutex                    // lockorder: leaf
	m    map[string]*relation.Columnar // guarded by mu
	fifo []string                      // guarded by mu
	rows int                           // guarded by mu
}

func newPrefixCache() *prefixCache {
	c := &prefixCache{shards: make([]prefixShard, cacheShardCount(16))}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*relation.Columnar)
	}
	return c
}

func (c *prefixCache) shard(key string) *prefixShard {
	// FNV-1a over the key, like the eval cache.
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h&uint32(len(c.shards)-1)]
}

// Get returns the cached intermediate for key, if present.
func (c *prefixCache) Get(key string) (*relation.Columnar, bool) {
	s := c.shard(key)
	s.mu.Lock()
	v, ok := s.m[key]
	s.mu.Unlock()
	return v, ok
}

// Put publishes an intermediate, evicting the shard's oldest entries past
// the entry cap or the row budget. Re-putting an existing key refreshes the
// value without growing the FIFO; intermediates past prefixEntryMaxRows are
// not cached at all.
func (c *prefixCache) Put(key string, v *relation.Columnar) {
	if v.NumRows() > prefixEntryMaxRows {
		return
	}
	s := c.shard(key)
	s.mu.Lock()
	if old, ok := s.m[key]; ok {
		s.rows -= old.NumRows()
	} else {
		s.fifo = append(s.fifo, key)
	}
	s.m[key] = v
	s.rows += v.NumRows()
	for len(s.fifo) > prefixCacheShardCap || s.rows > prefixCacheShardRowBudget {
		old := s.fifo[0]
		s.fifo = s.fifo[1:]
		if ev, ok := s.m[old]; ok {
			s.rows -= ev.NumRows()
			delete(s.m, old)
		}
	}
	s.mu.Unlock()
}

// Len reports the number of cached prefixes (for tests).
func (c *prefixCache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].m)
		c.shards[i].mu.Unlock()
	}
	return n
}

// joinIndexStore lazily builds and shares build-side join indexes per
// (versioned instance, join-attribute set) pair.
type joinIndexStore struct {
	mu sync.RWMutex                   // lockorder: leaf
	m  map[string]*relation.JoinIndex // guarded by mu
}

// maxViews bounds the projected-view store. Views are cheap to rebuild (a
// schema and a column-header slice), so the store is simply emptied when it
// is full: distinct keep sets grow with the X/Y splits shoppers ask for.
const maxViews = 4096

// viewStore shares each instance's projected view per keep set.
type viewStore struct {
	mu sync.RWMutex                   // lockorder: leaf
	m  map[viewKey]*relation.Columnar // guarded by mu
}

// viewKey is a (versioned instance, keep-set tag) pair; a struct key needs
// no separator between its two attacker-controlled parts.
type viewKey struct{ inst, tag string }

func joinIndexKey(instKey string, on []string) string {
	var b strings.Builder
	b.WriteString(instKey)
	for _, a := range on {
		b.WriteByte(0)
		b.WriteString(a)
	}
	return b.String()
}

// Caches bundles the memoized evaluation state — metric evaluations,
// projected views of the instances' columnar encodings, join indexes and
// join prefixes — so it can outlive a single Searcher. Every key incorporates the owning instance's
// (name, version) identity; a sample-rate escalation therefore invalidates
// exactly the entries of datasets whose rows changed, while state derived
// from unchanged datasets (empty deltas, owned sources) keeps hitting.
// Safe for concurrent use by any number of Searchers.
type Caches struct {
	eval     *evalCache
	views    viewStore
	joinIdx  joinIndexStore
	prefixes *prefixCache
}

// NewCaches returns an empty cache set.
func NewCaches() *Caches {
	return &Caches{
		eval:     newEvalCache(),
		views:    viewStore{m: make(map[viewKey]*relation.Columnar)},
		joinIdx:  joinIndexStore{m: make(map[string]*relation.JoinIndex)},
		prefixes: newPrefixCache(),
	}
}

// Retain drops the heavyweight cached state — projected views and join
// indexes — of instances whose versioned key is
// no longer live. A long-lived session escalates repeatedly, and every escalation
// supersedes most dataset versions; without pruning, each round would
// strand a full generation of per-row indexes in memory. (The evaluator
// cache is entry-capped instead — its values are small — and the prefix
// cache is row-budgeted already.)
func (c *Caches) Retain(live map[string]bool) {
	c.views.mu.Lock()
	for key := range c.views.m {
		if !live[key.inst] {
			delete(c.views.m, key)
		}
	}
	c.views.mu.Unlock()
	c.joinIdx.mu.Lock()
	for key := range c.joinIdx.m {
		// joinIndexKey is instKey + "\x00" + attr…; recover the instance.
		inst := key
		if i := strings.IndexByte(key, 0); i >= 0 {
			inst = key[:i]
		}
		if !live[inst] {
			delete(c.joinIdx.m, key)
		}
	}
	c.joinIdx.mu.Unlock()
}

// RetainInstances prunes the caches down to the given searcher's live
// instance keys.
func (c *Caches) RetainInstances(s *Searcher) {
	live := make(map[string]bool, len(s.instKey))
	for _, k := range s.instKey {
		live[k] = true
	}
	c.Retain(live)
}
