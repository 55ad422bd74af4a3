package relation

import (
	"sync"
	"sync/atomic"
)

// Chunked parallel execution for the columnar kernels (probe, row-id
// composition, gather, grouping). These helpers deliberately do not take a context: one chunk
// sweep over even a million rows finishes in milliseconds, and the search
// layer already checks cancellation between evaluations.

const (
	// parallelMinRows is the row count below which a kernel stays serial —
	// under it, goroutine hand-off costs more than the scan saves.
	parallelMinRows = 1 << 15
	// parallelChunkRows is the fixed chunk size of every parallel sweep.
	// Chunk boundaries are a function of the row count alone — never of the
	// worker count — so chunk-indexed intermediates (match counts, output
	// offsets) are identical for every worker count, which is what keeps
	// parallel joins bit-identical to serial ones.
	parallelChunkRows = 1 << 14
)

// runChunks runs fn(chunk, lo, hi) for every parallelChunkRows-sized chunk of
// [0, n), on at most workers goroutines. Chunks are claimed dynamically;
// chunk indexes and bounds do not depend on workers. workers ≤ 1 runs the
// chunks serially in order.
func runChunks(workers, n int, fn func(chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	chunks := (n + parallelChunkRows - 1) / parallelChunkRows
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		for c := 0; c < chunks; c++ {
			lo := c * parallelChunkRows
			fn(c, lo, min(lo+parallelChunkRows, n))
		}
		return
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1))
				if c >= chunks {
					return
				}
				lo := c * parallelChunkRows
				fn(c, lo, min(lo+parallelChunkRows, n))
			}
		}()
	}
	wg.Wait()
}

// atomicMinInt32 lowers *p to v if v is smaller (with -1 meaning "unset").
// The result is a pure minimum, so concurrent callers converge to the same
// value regardless of scheduling — the property the parallel grouping pass
// relies on for determinism.
func atomicMinInt32(p *int32, v int32) {
	for {
		old := atomic.LoadInt32(p)
		if old >= 0 && old <= v {
			return
		}
		if atomic.CompareAndSwapInt32(p, old, v) {
			return
		}
	}
}
