// Package parallel provides the small bounded-concurrency primitives the
// acquisition engine is built on: a worker pool over an index space with
// first-error cancellation. It has no dependencies beyond the standard
// library and is deliberately deterministic where it can be — output slots
// are indexed, so callers reduce results in input order regardless of
// scheduling.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers resolves a worker-count knob: n > 0 is used as given,
// anything else means "one worker per available CPU".
func DefaultWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines
// (workers <= 0 means one per CPU). Items are claimed dynamically, so
// uneven per-item costs balance across the pool.
//
// The first error cancels the pool: items not yet claimed are skipped,
// in-flight items run to completion, and the error reported is the one
// with the smallest index among those that failed — the same error a
// serial loop would have surfaced first among the executed items.
// workers == 1 degenerates to a plain serial loop with early exit.
//
// Cancelling ctx stops the pool the same way: unclaimed items are skipped
// and ctx.Err() is returned, unless some fn had already failed, in which
// case that (smaller-index) error wins. fn itself is responsible for
// honoring ctx inside long-running items.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	return ForEachWorker(ctx, n, workers, func(_, i int) error { return fn(i) })
}

// ForEachWorker is ForEach telling fn which of the pool's goroutines runs
// item i: w is in [0, workers), and no two items with the same w run at
// once, so fn may keep per-w state (scratch memory) without locking.
func ForEachWorker(ctx context.Context, n, workers int, fn func(w, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = DefaultWorkers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		// Mirror the pooled path: a context cancelled during the final item
		// reports ctx.Err() no matter the worker count.
		return ctx.Err()
	}

	var (
		next    atomic.Int64
		stopped atomic.Bool
		mu      sync.Mutex
		errIdx  = n // smallest failing index seen so far
		firstEr error
		wg      sync.WaitGroup
	)
	next.Store(-1)
	record := func(i int, err error) {
		mu.Lock()
		if i < errIdx {
			errIdx, firstEr = i, err
		}
		mu.Unlock()
		stopped.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if stopped.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := fn(w, i); err != nil {
					record(i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if firstEr != nil {
		return firstEr
	}
	return ctx.Err()
}

// Map runs fn over [0, n) like ForEach and collects the results in input
// order. On error the returned slice is nil.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
