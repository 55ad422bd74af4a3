package marketplace

import (
	"fmt"
	"math"
	"sort"

	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/sampling"
)

// referenceSampleRange is the row-store formulation of the canonical sample
// order, kept as the oracle the seller index is pinned against: it hashes
// every row of t, keeps those whose unit falls in (from, to] — [0, to] when
// from ≤ 0 — and stable-sorts them by unit. NULL-join rows have no unit;
// they are kept only when to ≥ 1 and sort after every hashed row.
func referenceSampleRange(t *relation.Table, joinAttrs []string, from, to float64, h sampling.Hasher) (*relation.Table, error) {
	out := relation.NewTable(t.Name, t.Schema)
	if to <= 0 || (from > 0 && from >= to) {
		return out, nil
	}
	idx, err := t.Schema.Indexes(joinAttrs...)
	if err != nil {
		return nil, fmt.Errorf("correlated sample of %s: %w", t.Name, err)
	}
	var units []float64
	var buf []byte
	for _, r := range t.Rows {
		null := false
		for _, c := range idx {
			if r[c].IsNull() {
				null = true
				break
			}
		}
		if null {
			if to >= 1 {
				units = append(units, math.Inf(1))
				out.Rows = append(out.Rows, r)
			}
			continue
		}
		buf = relation.EncodeKey(buf[:0], r, idx)
		if u := h.Unit(buf); u <= to && (from <= 0 || u > from) {
			units = append(units, u)
			out.Rows = append(out.Rows, r)
		}
	}
	perm := make([]int, len(out.Rows))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return units[perm[a]] < units[perm[b]] })
	sorted := make([][]relation.Value, len(out.Rows))
	for i, p := range perm {
		sorted[i] = out.Rows[p]
	}
	out.Rows = sorted
	return out, nil
}
