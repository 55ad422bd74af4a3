package relation

import "sync"

// Buffer ownership in the columnar kernels. A join path holds no column of
// its own: it is its joined schema plus one []int32 row-id vector per base
// relation, over base columns that are immutable (a search's instance
// views), and every kernel reads a path's columns through those row ids. So
// a hop allocates row-id vectors, never gathered columns, and only
// FilterRows copies a column. Every buffer a kernel touches falls in one of
// three classes:
//
//   - Results that escape into a value someone may keep — a published join
//     prefix's row-id vectors, a view, a JoinIndex, a Realize result (the
//     execute's join path), anything stored in a memo — are plain
//     allocations. They are immutable, shared across workers, and retained
//     for as long as a cache holds them.
//   - Temporaries dead before the function returns (probe maps, remap and
//     fuse tables, a JoinPairs' row lists) come from the process-wide pools
//     below: any goroutine may take one, and it is put back before the
//     kernel returns, so the pools hold only what is idle between calls.
//   - Values a caller drops after one pass — the row-id vectors of a
//     re-sampled path's terminal join and of each re-sampling decision, and
//     the groupings the metrics count — come from the caller's Scratch and
//     go back to it through Release and ReleaseGrouping. Without a Scratch
//     they are plain allocations.
//
// A Scratch belongs to one goroutine and lives for one search: the search
// creates one per worker goroutine and drops them all when it returns, so
// nothing a search recycled outlives it. Only the goroutine that owns a
// Scratch may take from it or release to it, and it may release only what
// that Scratch handed out; Release and ReleaseGrouping check this and
// ignore anything else. An execute's join and groupings never enter a
// Scratch: Realize and the Table paths pass none, so no free list holds a
// 50k-row relation between calls. A recycled buffer has arbitrary
// contents, so every taker overwrites (or explicitly resets) it before its
// first read.
//
// Recycling across searches does not pay here: a search runs only a dozen
// or so uncached evaluations, so its free lists are mostly cold, but a
// Scratch kept warm across searches (or a process-wide pool of one-pass
// buffers) retains the largest buffers it ever saw. Measured on
// resample-search, a pooled Scratch cut cpu_ms_per_op from 21.7 to 17.7 ms
// but raised heap_live_mb from 16 to 29–57 MB. Not producing the bytes —
// row ids instead of gathered columns — is the cut that keeps both down.

// slicePool recycles []T temporaries across goroutines. get returns a
// length-n slice with arbitrary contents; put recycles a buffer that no
// caller aliases anymore.
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

// Scalar is the element types a Scratch recycles.
type Scalar interface {
	uint32 | int32 | int64 | float64 | bool
}

// maxFree bounds each of a Scratch's free lists. A search holds a handful
// of buffers of each type at once (one path's row ids, a few groupings),
// so the bound only matters when sizes drift upward: the smallest buffers
// go first.
const maxFree = 16

// freeList is a Scratch's recycled buffers of one element type.
type freeList[T any] struct{ free [][]T }

// get returns a length-n slice with arbitrary contents: the smallest free
// buffer that holds n elements, or a new one.
func (l *freeList[T]) get(n int) []T {
	best := -1
	for i, b := range l.free {
		if cap(b) >= n && (best < 0 || cap(b) < cap(l.free[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]T, n)
	}
	b := l.free[best]
	last := len(l.free) - 1
	l.free[best], l.free[last] = l.free[last], nil
	l.free = l.free[:last]
	return b[:n]
}

// put recycles b, dropping the smallest buffer when the list is full.
func (l *freeList[T]) put(b []T) {
	if cap(b) == 0 {
		return
	}
	if len(l.free) < maxFree {
		l.free = append(l.free, b[:0])
		return
	}
	small := 0
	for i, f := range l.free {
		if cap(f) < cap(l.free[small]) {
			small = i
		}
	}
	if cap(b) > cap(l.free[small]) {
		l.free[small] = b[:0]
	}
}

// Scratch is the recycled working memory of one search's goroutine: typed
// free lists that the columnar kernels take one-pass buffers from and
// release them to, plus the search's memo of joined schemas. The zero
// value is not usable; a nil *Scratch is, and means "allocate as usual".
// A Scratch is not safe for concurrent use.
type Scratch struct {
	u32     freeList[uint32]
	i32     freeList[int32]
	i64     freeList[int64]
	f64     freeList[float64]
	bools   freeList[bool]
	schemas *SchemaMemo
}

// NewScratch returns an empty Scratch. Joins run with it look their joined
// schemas up in schemas (nil: every join builds its own).
func NewScratch(schemas *SchemaMemo) *Scratch { return &Scratch{schemas: schemas} }

// listOf returns s's free list of T.
func listOf[T Scalar](s *Scratch) *freeList[T] {
	var l any
	var zero T
	switch any(zero).(type) {
	case uint32:
		l = &s.u32
	case int32:
		l = &s.i32
	case int64:
		l = &s.i64
	case float64:
		l = &s.f64
	case bool:
		l = &s.bools
	}
	return l.(*freeList[T])
}

// ScratchSlice returns a length-n slice for one pass of work: from s, with
// arbitrary contents, or a fresh zeroed slice when s is nil. Give it back
// with FreeSlice once nothing reads it.
func ScratchSlice[T Scalar](s *Scratch, n int) []T {
	if s == nil {
		return make([]T, n)
	}
	return listOf[T](s).get(n)
}

// FreeSlice returns b, which ScratchSlice handed out of the same s, to s.
// Nothing may read b afterwards. A nil s ignores it.
func FreeSlice[T Scalar](s *Scratch, b []T) {
	if s != nil {
		listOf[T](s).put(b)
	}
}

// Release returns the row-id vectors of the join path c to s when s
// extended it (Extend, ExtendSubset), and empties c: nothing may read it
// afterwards. Anything else — a published prefix, a view, an instance
// sample, a Realize result, or c already released — is left untouched.
func (s *Scratch) Release(c *Columnar) {
	if s == nil || c == nil || c.owner != s {
		return
	}
	s.i32.put(c.back)
	c.owner, c.back, c.ids, c.cols, c.n = nil, nil, nil, nil, 0
}

// ReleaseGrouping returns the storage of g to s when s grouped it
// (GroupBy, Refine), and empties g. Any other grouping is left untouched.
func (s *Scratch) ReleaseGrouping(g *Grouping) {
	if s == nil || g == nil || g.owner != s {
		return
	}
	s.u32.put(g.Codes)
	s.i64.put(g.Counts)
	s.i32.put(g.First)
	g.owner, g.Codes, g.Counts, g.First = nil, nil, nil, nil
}
