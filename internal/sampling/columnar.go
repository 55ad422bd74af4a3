package sampling

import (
	"fmt"

	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/safekey"
)

// Correlated sampling and the re-sampled multi-way join (Sec 3) on
// dictionary codes: joins gather codes instead of materializing rows, and
// the correlated hash is computed once per distinct join-attribute tuple
// instead of once per row. The row-store formulations these kernels
// replaced survive as test oracles (row_oracle_test.go), which pin kept
// rows, output order and re-sampling decisions bit for bit.

// CorrelatedSampleColumnar keeps each row of c whose join-attribute tuple
// hashes to at most rate, in c's row order. rate ≥ 1 returns c itself
// (columnars are immutable, so no clone is needed); rate ≤ 0 returns an
// empty relation.
// NULL join values are never sampled (they cannot join).
func CorrelatedSampleColumnar(c *relation.Columnar, joinAttrs []string, rate float64, h Hasher) (*relation.Columnar, error) {
	if rate >= 1 {
		return c, nil
	}
	if rate <= 0 {
		return c.FilterRows(nil), nil
	}
	cols, err := c.Schema().Indexes(joinAttrs...)
	if err != nil {
		return nil, fmt.Errorf("correlated sample of %s: %w", c.Name, err)
	}
	keep, err := sampleRows(c, cols, rate, h, 1, nil)
	if err != nil {
		return nil, fmt.Errorf("correlated sample of %s: %w", c.Name, err)
	}
	return c.FilterRows(keep), nil
}

// resamplePairs re-samples the join pairs p before their gather, keeping
// exactly the rows CorrelatedSampleColumnar keeps of the gathered join: only
// the join attributes are gathered to decide, and every kept column is then
// gathered once instead of twice. The grouping pass runs on up to workers
// goroutines; kept rows are identical for every worker count. The decision
// — the narrow gather, its grouping and the kept rows — is one pass of work
// in s.
func resamplePairs(p *relation.JoinPairs, joinAttrs []string, rate float64, h Hasher, workers int, s *relation.Scratch) error {
	if rate >= 1 {
		return nil
	}
	if rate <= 0 {
		p.Keep(nil)
		return nil
	}
	cols, err := p.Schema().Indexes(joinAttrs...)
	if err != nil {
		return fmt.Errorf("correlated sample of %s: %w", p.Name(), err)
	}
	sub := s.GatherSubset(p, cols)
	keep, err := sampleRows(sub, cols, rate, h, workers, s)
	s.Release(sub)
	if err != nil {
		return fmt.Errorf("correlated sample of %s: %w", p.Name(), err)
	}
	p.Keep(keep)
	relation.FreeSlice(s, keep)
	return nil
}

// sampleRows returns, ascending, the rows of c whose join-attribute tuple
// (the coded columns cols) is NULL-free and hashes to at most rate. The
// rows are taken from s; the caller frees them.
func sampleRows(c *relation.Columnar, cols []int, rate float64, h Hasher, workers int, s *relation.Scratch) ([]int32, error) {
	g, err := s.GroupBy(c, cols, workers)
	if err != nil {
		return nil, err
	}
	defer s.ReleaseGrouping(g)
	// One NULL check and one hash per distinct tuple: every row of a group
	// shares the tuple, so a per-row hash collapses to a per-group decision.
	keepGroup := relation.ScratchSlice[bool](s, g.N())
	defer relation.FreeSlice(s, keepGroup)
	var buf []byte
	for gid := range keepGroup {
		first := int(g.First[gid])
		null := false
		for _, ci := range cols {
			if c.IsNullAt(first, ci) {
				null = true
				break
			}
		}
		if null {
			keepGroup[gid] = false
			continue
		}
		buf = c.AppendRowKey(buf[:0], first, cols)
		keepGroup[gid] = h.Unit(buf) <= rate
	}
	kept := 0
	for _, gc := range g.Codes {
		if keepGroup[gc] {
			kept++
		}
	}
	keep := relation.ScratchSlice[int32](s, kept)[:0]
	for i, gc := range g.Codes {
		if keepGroup[gc] {
			keep = append(keep, int32(i))
		}
	}
	return keep, nil
}

// ColumnarStep is one hop of a columnar join path.
type ColumnarStep struct {
	C  *relation.Columnar
	On []string // ignored for the first step
	// Index optionally carries a prebuilt build-side join index of C on
	// exactly On (relation.Columnar.BuildJoinIndex). Search precomputes one
	// per (instance, join-attrs) pair and shares it across candidates and
	// workers.
	Index *relation.JoinIndex
	// ID is a stable identity of the step's table for prefix-cache keys
	// (search uses the instance index). Steps with equal IDs must carry the
	// same columnar data.
	ID string
}

// PrefixCache caches accumulated join prefixes across candidate paths.
// Implementations must be safe for concurrent use and must treat cached
// relations as immutable. search.Searcher provides a sharded, size-capped
// implementation.
type PrefixCache interface {
	Get(key string) (*relation.Columnar, bool)
	Put(key string, c *relation.Columnar)
}

// prefixKeys returns, for each step i ≥ 1, the identity of the accumulated
// (and possibly re-sampled) intermediate after joining steps[0..i]. The key
// covers the sampling options (η, ρ, hasher seed — PathJoinOptions.CacheKey,
// for the same reason the evaluator cache includes it: equal spines under
// different sampling options produce different tables), the projection tag,
// every step's table identity and join attributes, and — when re-sampling is
// enabled — the *next* step's join attributes, because the intermediate is
// re-sampled on the attributes it will join on next, and a path that ends at
// step i must not share state with one that continues through it. (Such a
// terminal key, whose next part is "$", names a join that is never
// published: see ResampledJoinPathColumnar.)
//
// Step IDs and attribute names are seller- and shopper-controlled text, so
// every part is length-prefixed (safekey.Join); keys of different paths can
// never alias, whatever the names contain.
func prefixKeys(steps []ColumnarStep, opts PathJoinOptions) []string {
	keys := make([]string, len(steps))
	key := safekey.Join(opts.CacheKey(), opts.ProjectionTag, steps[0].ID)
	for i := 1; i < len(steps); i++ {
		next := ""
		if opts.Eta > 0 {
			if i < len(steps)-1 {
				next = safekey.Join(steps[i+1].On...)
			} else {
				next = "$" // terminal: a Join of one or more parts starts with a digit
			}
		}
		key += safekey.Join(steps[i].ID, safekey.Join(steps[i].On...), next)
		keys[i] = key
	}
	return keys
}

// ResampledJoinPathColumnar joins steps left to right, ((C1 ⋈ C2) ⋈ C3) ⋈ …,
// like relation.JoinPath. When an intermediate result exceeds opts.Eta rows
// and another join follows, it is re-sampled with the correlated hash on the
// *next* step's join attributes, bounding intermediate sizes while
// preserving join structure (Sec 3.2). No joined row is ever materialized.
// When cache is non-nil, the longest already-cached prefix of the path is
// reused and newly computed intermediates are published, so MCMC
// neighbors that differ in one edge variant re-join only the suffix behind
// the change. On a cache hit, stats cover only the joins actually performed
// in this call.
//
// With η > 0 the terminal join is never published: its key names a path
// that ends there, which no longer path shares, and a search asks for a
// repeated target graph's metrics, not its join. Every η = 0 hop and every
// non-terminal hop is published.
func ResampledJoinPathColumnar(steps []ColumnarStep, opts PathJoinOptions, cache PrefixCache) (*relation.Columnar, ResampleStats, error) {
	return ResampledJoinPathScratch(steps, opts, cache, nil)
}

// ResampledJoinPathScratch is ResampledJoinPathColumnar with one-pass work
// in s: the join temporaries, every re-sampling decision and, with η > 0,
// the terminal join itself, which the caller hands back with s.Release once
// it has measured it. A nil s allocates as ResampledJoinPathColumnar does.
func ResampledJoinPathScratch(steps []ColumnarStep, opts PathJoinOptions, cache PrefixCache, s *relation.Scratch) (*relation.Columnar, ResampleStats, error) {
	var stats ResampleStats
	if len(steps) == 0 {
		return nil, stats, fmt.Errorf("sampling: empty join path")
	}
	last := len(steps) - 1
	var keys []string
	start := 0
	acc := steps[0].C
	if cache != nil {
		keys = prefixKeys(steps, opts)
		top := last
		if opts.Eta > 0 {
			top-- // the terminal prefix is never published
		}
		for i := top; i >= 1; i-- {
			if c, ok := cache.Get(keys[i]); ok {
				acc, start = c, i
				break
			}
		}
	}
	for i := start + 1; i < len(steps); i++ {
		p, err := s.EquiJoinPairs(acc, steps[i].C, steps[i].On, steps[i].Index,
			relation.JoinOptions{Workers: opts.Workers})
		if err != nil {
			return nil, stats, err
		}
		stats.IntermediateSizes = append(stats.IntermediateSizes, p.Len())
		// Only re-sample when another join follows and the threshold trips.
		resampled := opts.Eta > 0 && i < last && p.Len() > opts.Eta
		if resampled {
			if err := resamplePairs(p, steps[i+1].On, opts.ResampleRate, opts.Hasher, opts.Workers, s); err != nil {
				return nil, stats, err
			}
		}
		stats.Resampled = append(stats.Resampled, resampled)
		if i == last && opts.Eta > 0 {
			acc = s.Gather(p)
			break
		}
		acc = p.Gather()
		if cache != nil {
			cache.Put(keys[i], acc)
		}
	}
	return acc, stats, nil
}
