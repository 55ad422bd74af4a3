package relation

import "sync"

// Scratch pools for the columnar inner loops. Steady-state MCMC evaluation
// calls EquiJoinColumnar/GroupBy thousands of times per search with
// near-identical sizes; recycling the probe maps, remap tables, fuse tables
// and row-pairing buffers removes almost all per-call garbage.
//
// Pooling rules (see DESIGN.md "Parallel search & the million-row path"):
// only *scratch* — state dead before the function returns, or a JoinPairs'
// row lists, dead once its Gather returns — may come from a pool. Anything
// that escapes into a returned Columnar, Grouping or JoinIndex (gathered
// codes, counts, first rows) is freshly allocated, because those
// values are immutable, shared across workers, and retained indefinitely by
// the prefix cache. A pooled buffer is always fully overwritten (or
// explicitly reset) before its first read, so reuse can never leak values
// between calls.

// slicePool recycles []T scratch buffers. get returns a length-n slice with
// arbitrary contents; put recycles a buffer that no caller aliases anymore.
type slicePool[T any] struct{ p sync.Pool }

func (sp *slicePool[T]) get(n int) []T {
	if v := sp.p.Get(); v != nil {
		s := *(v.(*[]T))
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]T, n)
}

func (sp *slicePool[T]) put(s []T) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	sp.p.Put(&s)
}

var (
	poolInt32  slicePool[int32]
	poolUint32 slicePool[uint32]
)
