package infotheory

import (
	"fmt"
	"sort"

	"github.com/dance-db/dance/internal/relation"
)

// This file keeps the row-store CORR kernel (Def 2.5) as the reference
// oracle the columnar kernel must match bit for bit: it groups rows through
// injective byte-string keys and sums group terms in first-appearance order.

// correlationOnRows is CORR(X, Y) on the row store.
func correlationOnRows(t *relation.Table, x, y []string) (float64, error) {
	if len(x) == 0 || len(y) == 0 || t.NumRows() == 0 {
		return 0, nil
	}
	xc, xn, err := splitCorrAttrs(t.Schema, t.Name, x, y)
	if err != nil {
		return 0, err
	}
	corr := 0.0
	if len(xc) > 0 {
		hx, err := Entropy(t, xc...)
		if err != nil {
			return 0, err
		}
		hxy, err := conditionalEntropy(t, xc, y)
		if err != nil {
			return 0, err
		}
		corr += hx - hxy
	}
	for _, a := range xn {
		vals, err := numericColumn(t, a, nil)
		if err != nil {
			return 0, err
		}
		lo, hi := rangeOf(vals)
		if hi <= lo {
			continue // constant column: zero information either way
		}
		scale := 1 / (hi - lo)
		normalize := func(xs []float64) []float64 {
			out := make([]float64, len(xs))
			for i, x := range xs {
				out[i] = (x - lo) * scale
			}
			return out
		}
		h := cumulativeEntropy(normalize(vals))
		groups, err := groupRowLists(t, y)
		if err != nil {
			return 0, err
		}
		total := float64(t.NumRows())
		hc := 0.0
		for _, rows := range groups {
			gv, err := numericColumn(t, a, rows)
			if err != nil {
				return 0, err
			}
			hc += float64(len(rows)) / total * cumulativeEntropy(normalize(gv))
		}
		corr += h - hc
	}
	return clampCorr(corr), nil
}

// conditionalEntropy is H(X | Y) = H(X ∪ Y) − H(Y) on the row store.
func conditionalEntropy(t *relation.Table, x, y []string) (float64, error) {
	hy, err := Entropy(t, y...)
	if err != nil {
		return 0, err
	}
	hxy, err := Entropy(t, append(append([]string{}, x...), y...)...)
	if err != nil {
		return 0, err
	}
	return hxy - hy, nil
}

// cumulativeEntropy returns the empirical cumulative entropy
// h(X) = −Σ_{i<n} (x_{i+1} − x_i) · F(x_i) · log2 F(x_i) of xs, where F is
// the empirical CDF, without reordering xs.
func cumulativeEntropy(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return cumulativeEntropySorted(sorted, log2Upto(len(sorted)))
}

// numericColumn extracts the non-NULL numeric values of column name for the
// given row indices (nil = all rows).
func numericColumn(t *relation.Table, name string, rows []int) ([]float64, error) {
	ci := t.Schema.Index(name)
	if ci < 0 {
		return nil, fmt.Errorf("infotheory: table %s has no column %q", t.Name, name)
	}
	var out []float64
	take := func(r []relation.Value) {
		if !r[ci].IsNull() {
			out = append(out, r[ci].Num())
		}
	}
	if rows == nil {
		for _, r := range t.Rows {
			take(r)
		}
	} else {
		for _, i := range rows {
			take(t.Rows[i])
		}
	}
	return out, nil
}

// groupRowLists groups row indices by the tuple of values in the named
// columns, in first-appearance order of each distinct tuple.
func groupRowLists(t *relation.Table, names []string) ([][]int, error) {
	idx, err := t.Schema.Indexes(names...)
	if err != nil {
		return nil, err
	}
	ids := make(map[string]int)
	var groups [][]int
	var buf []byte
	for i, r := range t.Rows {
		buf = relation.EncodeKey(buf[:0], r, idx)
		id, ok := ids[string(buf)]
		if !ok {
			id = len(groups)
			ids[string(buf)] = id
			groups = append(groups, nil)
		}
		groups[id] = append(groups[id], i)
	}
	return groups, nil
}
