package fd

import (
	"fmt"

	"github.com/dance-db/dance/internal/bitset"
	"github.com/dance-db/dance/internal/relation"
)

// This file keeps the row-store quality kernel (Defs 2.2 and 2.3) as the
// reference oracle the columnar kernel must match exactly: it groups rows
// through injective byte-string keys, one FD and one bitset at a time.

// correctRows returns C(D, X→Y) of Def 2.2 over the rows of t: for every
// equivalence class of π_X, the rows of the largest class of π_{X∪Y} in it,
// ties broken by smallest first-row index.
func correctRows(t *relation.Table, f FD) (*bitset.Set, error) {
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
	correct := bitset.New(t.NumRows())
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
		for _, ri := range best {
			correct.Set(ri)
		}
	}
	return correct, nil
}

// intersect clears from acc every row c does not hold.
func intersect(acc, c *bitset.Set) {
	for _, i := range acc.Indices() {
		if !c.Has(i) {
			acc.Clear(i)
		}
	}
}

// qualitySet returns Q of Def 2.3, |⋂_F C(t, F)| / |t|, over the FDs of
// fds that apply to t (1 when none does or t is empty).
func qualitySet(t *relation.Table, fds []FD) (float64, error) {
	if t.NumRows() == 0 {
		return 1, nil
	}
	var acc *bitset.Set
	for _, f := range Applicable(fds, t.Schema) {
		c, err := correctRows(t, f)
		if err != nil {
			return 0, err
		}
		if acc == nil {
			acc = c
		} else {
			intersect(acc, c)
		}
	}
	if acc == nil {
		return 1, nil
	}
	return float64(acc.Count()) / float64(t.NumRows()), nil
}
