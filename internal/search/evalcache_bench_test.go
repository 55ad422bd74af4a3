package search

import (
	"fmt"
	"sync"
	"testing"

	"github.com/dance-db/dance/internal/memo"
)

// Contention benchmarks for the GOMAXPROCS-sized memo sharding: eight
// goroutines — the intra-chain segment pool of one 8-worker search —
// hammering Get/Put with a mixed hit/miss key stream on an evaluation
// memo, against a single shard (maximum contention) and the
// GOMAXPROCS-sized default. Run with -cpu 8 on a multicore box to see the
// spread; on one CPU the two converge because nothing contends.
//
//	go test ./internal/search/ -run - -bench EvalCacheContention -cpu 8

func benchmarkEvalCacheContention(b *testing.B, c *memo.Memo[Metrics]) {
	const keys = 1 << 10
	ks := make([]string, keys)
	for i := range ks {
		ks[i] = fmt.Sprintf("tg-%d|inst-%d|corr", i, i%7)
		if i%2 == 0 {
			c.Put(ks[i], Metrics{Correlation: float64(i)})
		}
	}
	const workers = 8
	b.ResetTimer()
	perWorker := b.N/workers + 1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := ks[(i*workers+w)%keys]
				if _, ok := c.Get(k); !ok {
					c.Put(k, Metrics{Correlation: float64(i)})
				}
			}
		}(w)
	}
	wg.Wait()
}

func BenchmarkEvalCacheContentionSingleShard(b *testing.B) {
	benchmarkEvalCacheContention(b, memo.New[Metrics](1, evalCacheShardCap))
}

func BenchmarkEvalCacheContentionSharded(b *testing.B) {
	benchmarkEvalCacheContention(b, newCacheSet().eval)
}
