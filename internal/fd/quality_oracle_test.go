package fd

import (
	"fmt"
	"slices"

	"github.com/dance-db/dance/internal/bitset"
	"github.com/dance-db/dance/internal/relation"
)

// This file keeps the row-store quality kernel (Defs 2.2 and 2.3) as the
// reference oracle the columnar kernel must match exactly: it groups rows
// through injective byte-string keys, one FD and one row list at a time.

// correctRows returns C(D, X→Y) of Def 2.2 over the rows of t, in
// increasing order: for every equivalence class of π_X, the rows of the
// largest class of π_{X∪Y} in it, ties broken by smallest first-row index.
func correctRows(t *relation.Table, f FD) ([]int, error) {
	lhs, err := t.Schema.Indexes(f.LHS...)
	if err != nil {
		return nil, fmt.Errorf("fd %s on %s: %w", f, t.Name, err)
	}
	rhsIdx := t.Schema.Index(f.RHS)
	if rhsIdx < 0 {
		return nil, fmt.Errorf("fd %s on %s: no column %q", f, t.Name, f.RHS)
	}
	xGroups := make(map[string][]int)
	var buf []byte
	for i, r := range t.Rows {
		buf = relation.EncodeKey(buf[:0], r, lhs)
		xGroups[string(buf)] = append(xGroups[string(buf)], i)
	}
	var correct []int
	sub := make(map[string][]int)
	for _, rows := range xGroups {
		clear(sub)
		for _, ri := range rows {
			buf = t.Rows[ri][rhsIdx].AppendKey(buf[:0])
			sub[string(buf)] = append(sub[string(buf)], ri)
		}
		var best []int
		for _, g := range sub {
			if len(g) > len(best) || (len(g) == len(best) && len(g) > 0 && g[0] < best[0]) {
				best = g
			}
		}
		correct = append(correct, best...)
	}
	slices.Sort(correct)
	return correct, nil
}

// intersectRows returns the rows both increasing lists hold.
func intersectRows(a, b []int) []int {
	var out []int
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			a = a[1:]
		case a[0] > b[0]:
			b = b[1:]
		default:
			out = append(out, a[0])
			a, b = a[1:], b[1:]
		}
	}
	return out
}

// rowsOf lists the rows among the first n that s holds, in increasing
// order, and empties s on the way: a row is held when clearing it lowers
// Count.
func rowsOf(s *bitset.Set, n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		before := s.Count()
		if s.Clear(i); s.Count() < before {
			out = append(out, i)
		}
	}
	return out
}

// qualitySet returns Q of Def 2.3, |⋂_F C(t, F)| / |t|, over the FDs of
// fds that apply to t (1 when none does or t is empty).
func qualitySet(t *relation.Table, fds []FD) (float64, error) {
	if t.NumRows() == 0 {
		return 1, nil
	}
	var acc []int
	applied := false
	for _, f := range Applicable(fds, t.Schema) {
		c, err := correctRows(t, f)
		if err != nil {
			return 0, err
		}
		if !applied {
			acc, applied = c, true
		} else {
			acc = intersectRows(acc, c)
		}
	}
	if !applied {
		return 1, nil
	}
	return float64(len(acc)) / float64(t.NumRows()), nil
}
