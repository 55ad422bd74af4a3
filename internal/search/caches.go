package search

import (
	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/memo"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/sampling"
)

// evalCacheShardCap bounds one shard of a Searcher's memo of η = 0 metric
// evaluations. The middleware serves every request of a sampling round
// from one Searcher, so a long round over many X/Y splits would otherwise
// grow it without end. Metrics are small, so the bound is generous.
const evalCacheShardCap = 1 << 12

// resampledEvalShardCap bounds one shard of a Searcher's memo of η > 0
// evaluations. Their keys carry the request's re-sampling seed, so an entry
// serves only a later request with the same seed: a shopper repeating a
// request, shoppers sharing a seed or omitting it (108 of 120 lookups hit
// an earlier search's entry on danceload traffic cycling four seeds).
// Traffic that gives every search a fresh seed only leaves dead entries, so
// the bound is far tighter than the η = 0 memo's: 4 096 entries (about
// 1 MB) on 2 CPUs, room for the few hundred evaluations of each of a few
// concurrent searches.
const resampledEvalShardCap = 1 << 8

// The join-prefix memo holds accumulated join prefixes, each a row-id join
// path over the search's views (sampling.PrefixCache). MCMC neighbors differ
// in one edge variant, so candidate paths share long spine prefixes; caching
// the intermediate after each hop lets a neighbor re-join only the suffix
// behind its changed edge. Each search builds its own memo (newPrefixMemo)
// and drops it when it returns; an exported Evaluate, a search of one target
// graph, publishes only distinct prefixes and builds none. With η > 0 the
// re-sampling hasher is seeded from the request, so a prefix serves no other
// search. The keys, made by the sampling package, cover only the path, since
// one search joins under one set of sampling options and one keep set.
// Entries are whole join intermediates, unbounded when η re-sampling is off,
// so each shard is bounded both by entry count and by its summed rows, and
// oversized intermediates are never cached at all.
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

// maxFDPlans bounds a Searcher's memo of FD classifications, one per
// (X/Y split, join plan) its searches evaluated; each entry is a few dozen
// FDs and column indexes.
const maxFDPlans = 1024

// The refinement memo holds each anchored FD's base-row refinement
// (fd.RefineBase), keyed by the instance's vertex and the FD's columns. An
// exact FD's refinement is a flag; any other holds an int32 per base row,
// so each shard is bounded by its summed base rows as well as by entries,
// and a refinement of a huge sample is never kept.
const (
	refineShards         = 4
	refineShardCap       = 1024
	refineShardRowBudget = 1 << 21
	refineEntryMaxRows   = refineShardRowBudget / 2
)

// maxJoinIndexes bounds the join-index memo. An index holds a row list per
// key of an instance sample, so it is the heaviest entry here; a graph
// needs one per (instance, join-attribute set) its candidate paths probe.
const maxJoinIndexes = 256

// cacheSet is one Searcher's memoized evaluation state: metric
// evaluations, projected views of the instances' columnar encodings, join
// indexes, FD refinements, joined schemas, keep sets and FD plans. It lives
// and dies with its Searcher, so it is a function of one join graph: every
// key names an instance by its vertex index in the graph, never by its
// name. Every memo is safe for concurrent use.
type cacheSet struct {
	// eval holds η = 0 evaluations, resampled η > 0 ones.
	eval, resampled *memo.Memo[Metrics]
	views           *memo.Memo[*relation.Columnar]
	joinIdx         *memo.Memo[*relation.JoinIndex]
	refines         *memo.Memo[*fd.Refinement]
	// schemas memoizes the schemas of the joins searches run. Execute
	// (Realize) never reaches it: its joins build their schemas once.
	schemas *relation.SchemaMemo
	// keeps memoizes the keep set of each X/Y split (Request.corrKey): a
	// function of the split and of the graph, so one per split serves
	// every search.
	keeps *memo.Memo[*keepSet]
	// plans memoizes the FD classification of each (X/Y split, join plan)
	// the searches evaluated (fdPlanOf).
	plans *memo.Memo[*fdPlan]
}

// newCacheSet returns an empty cache set.
func newCacheSet() *cacheSet {
	return &cacheSet{
		eval:      memo.New[Metrics](memo.Shards(32), evalCacheShardCap),
		resampled: memo.New[Metrics](memo.Shards(16), resampledEvalShardCap),
		views:     memo.New[*relation.Columnar](1, maxViews),
		joinIdx:   memo.New[*relation.JoinIndex](1, maxJoinIndexes),
		refines:   newRefineMemo(refineShards, refineShardCap, refineEntryMaxRows),
		schemas:   relation.NewSchemaMemo(maxJoinedSchemas),
		keeps:     memo.New[*keepSet](1, maxKeepSets),
		plans:     memo.New[*fdPlan](1, maxFDPlans),
	}
}

// newRefineMemo builds a refinement memo of shards shards of at most
// entries refinements each, bounded in base rows, that keeps no refinement
// of more than maxRows base rows.
func newRefineMemo(shards, entries, maxRows int) *memo.Memo[*fd.Refinement] {
	return memo.NewCosted(shards, entries, refineShardRowBudget, maxRows, (*fd.Refinement).BaseRows)
}
