package search

import (
	"github.com/dance-db/dance/internal/memo"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/sampling"
)

// evalCacheShardCap bounds one shard of the metric-evaluation memo. The
// memo outlives a single Searcher (it is shared across offline rebuilds,
// keyed by dataset version), so without a bound a long-lived escalating
// session would accumulate one generation of dead entries per round.
// Metrics are small, so the bound is generous.
const evalCacheShardCap = 1 << 12

// The join-prefix memo holds accumulated join prefixes, each a row-id
// join path over the search's views (sampling.PrefixCache). MCMC neighbors
// differ in one edge variant, so candidate paths share long spine
// prefixes; caching the intermediate after each hop lets a neighbor
// re-join only the suffix behind its changed edge. Each search builds its own memo (newPrefixMemo) and drops it when
// it returns. With η > 0 the re-sampling hasher is seeded from the request,
// so a prefix serves no other search. The keys, made by the sampling
// package, cover only the path, since one search joins under one set of
// sampling options and one keep set. Entries are whole join intermediates,
// unbounded when η re-sampling is off, so each shard is bounded both by
// entry count and by its summed rows, and oversized intermediates are never
// cached at all.
const (
	prefixCacheShardCap = 48
	// prefixCacheShardRowBudget bounds the summed NumRows of a shard's
	// entries (~14 MB of row ids per shard at a typical 3.5 int32 row-id
	// vectors per prefix).
	prefixCacheShardRowBudget = 1 << 20
	// prefixEntryMaxRows keeps any single huge intermediate from churning
	// the whole shard.
	prefixEntryMaxRows = prefixCacheShardRowBudget / 4
)

// newPrefixMemo builds one search's join-prefix memo. It is a variable so
// tests can bound or record a search's prefixes.
var newPrefixMemo = func() sampling.PrefixCache {
	return memo.NewCosted(memo.Shards(16), prefixCacheShardCap, prefixCacheShardRowBudget,
		prefixEntryMaxRows, (*relation.Columnar).NumRows)
}

// maxViews bounds the projected-view memo. Views are cheap to rebuild (a
// schema and a column-header slice), and distinct keep sets grow with the
// X/Y splits shoppers ask for.
const maxViews = 4096

// maxKeepSets bounds a Searcher's memo of keep sets, one per X/Y split its
// searches asked for; each is a name set over the graph's columns.
const maxKeepSets = 64

// maxJoinedSchemas bounds the joined-schema memo. A search joins a few
// dozen distinct (left, right, attributes) schema triples; each entry is
// one schema of a few dozen columns.
const maxJoinedSchemas = 1024

// maxJoinIndexes bounds the join-index memo. An index holds a row list per
// key of an instance sample, so it is the heaviest entry here; a graph
// needs one per (instance, join-attribute set) its candidate paths probe,
// and Retain drops superseded versions.
const maxJoinIndexes = 256

// owned tags a memoized value with the versioned instance it derives from,
// so Retain can select entries by instance without parsing keys.
type owned[T any] struct {
	inst string
	v    T
}

// Caches bundles the memoized evaluation state — metric evaluations,
// projected views of the instances' columnar encodings, join indexes and
// joined schemas — so it can outlive a single Searcher. Every key
// incorporates the owning instance's (name, version) identity; a
// sample-rate escalation therefore invalidates exactly the entries of
// datasets whose rows changed, while state derived from unchanged datasets
// (empty deltas, owned sources) keeps hitting. Safe for concurrent use by
// any number of Searchers.
type Caches struct {
	eval    *memo.Memo[Metrics]
	views   *memo.Memo[owned[*relation.Columnar]]
	joinIdx *memo.Memo[owned[*relation.JoinIndex]]
	// schemas memoizes the schemas of the joins searches run. Execute
	// (Realize) never reaches it: its joins build their schemas once.
	schemas *relation.SchemaMemo
}

// NewCaches returns an empty cache set.
func NewCaches() *Caches {
	return &Caches{
		eval:    memo.New[Metrics](memo.Shards(32), evalCacheShardCap),
		views:   memo.New[owned[*relation.Columnar]](1, maxViews),
		joinIdx: memo.New[owned[*relation.JoinIndex]](1, maxJoinIndexes),
		schemas: relation.NewSchemaMemo(maxJoinedSchemas),
	}
}

// RetainInstances drops the heavyweight cached state — projected views and
// join indexes — of instances whose versioned key is not one of s's. A
// long-lived session escalates repeatedly, and every escalation supersedes
// most dataset versions; pruning frees a generation of per-row indexes at
// once instead of waiting for eviction. (Evaluations are small, and join
// prefixes die with their search.)
func (c *Caches) RetainInstances(s *Searcher) {
	live := make(map[string]bool, len(s.instKey))
	for _, k := range s.instKey {
		live[k] = true
	}
	c.views.DeleteFunc(func(e owned[*relation.Columnar]) bool { return !live[e.inst] })
	c.joinIdx.DeleteFunc(func(e owned[*relation.JoinIndex]) bool { return !live[e.inst] })
}
