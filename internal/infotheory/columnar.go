package infotheory

import (
	"fmt"
	"math"
	"sort"

	"github.com/dance-db/dance/internal/relation"
)

// The information-theoretic measures on dictionary codes: groupings are
// fused integer-code counts (relation.Scratch.GroupBy) instead of injective
// byte-string map keys, and group terms are summed in first-appearance
// order. Entropy (kept on the row store for pricing) sums in the same order,
// so entropyColumnar is bit-identical to it; the row-store CORR formulation
// survives as the test oracle of corr_oracle_test.go.

// entropyColumnar returns the joint Shannon entropy H(X) of the named
// attribute set X in c, counting its grouping in s (nil: allocated).
// Bit-identical to Entropy on the decoded table.
func entropyColumnar(c *relation.Columnar, cols []string, s *relation.Scratch) (float64, error) {
	if len(cols) == 0 || c.NumRows() == 0 {
		return 0, nil
	}
	idx, err := c.Schema().Indexes(cols...)
	if err != nil {
		return 0, fmt.Errorf("entropy of %s%v: %w", c.Name, cols, err)
	}
	g, err := s.GroupBy(c, idx, 1)
	if err != nil {
		return 0, fmt.Errorf("entropy of %s%v: %w", c.Name, cols, err)
	}
	h := EntropyFromCounts(g.Counts)
	s.ReleaseGrouping(g)
	return h, nil
}

// conditionalEntropyColumnar returns H(X | Y) = H(X ∪ Y) − H(Y), counting
// its groupings in s (nil: allocated).
func conditionalEntropyColumnar(c *relation.Columnar, x, y []string, s *relation.Scratch) (float64, error) {
	hy, err := entropyColumnar(c, y, s)
	if err != nil {
		return 0, err
	}
	hxy, err := entropyColumnar(c, append(append([]string{}, x...), y...), s)
	if err != nil {
		return 0, err
	}
	return hxy - hy, nil
}

// CorrelationColumnar computes CORR(X, Y) of Def 2.5 on the columnar
// relation c — the evaluator's hot path. See Correlation for the measure's
// definition. Every grouping it counts and drops — Y, X and X ∪ Y — and the
// cumulative-entropy buffers are taken from s (nil: allocated).
func CorrelationColumnar(c *relation.Columnar, x, y []string, s *relation.Scratch) (float64, error) {
	if len(x) == 0 || len(y) == 0 || c.NumRows() == 0 {
		return 0, nil
	}
	xc, xn, err := splitCorrAttrs(c.Schema(), c.Name, x, y)
	if err != nil {
		return 0, err
	}

	corr := 0.0
	if len(xc) > 0 {
		hx, err := entropyColumnar(c, xc, s)
		if err != nil {
			return 0, err
		}
		hxy, err := conditionalEntropyColumnar(c, xc, y, s)
		if err != nil {
			return 0, err
		}
		corr += hx - hxy
	}
	if len(xn) > 0 {
		yIdx, err := c.Schema().Indexes(y...)
		if err != nil {
			return 0, err
		}
		g, err := s.GroupBy(c, yIdx, 1)
		if err != nil {
			return 0, err
		}
		logTab := log2Upto(c.NumRows())
		for _, a := range xn {
			corr += cumulativeGain(c, c.Schema().Index(a), g, logTab, s)
		}
		s.ReleaseGrouping(g)
	}
	return clampCorr(corr), nil
}

// cumulativeGain returns h(A) − h(A|Y) for the numeric column ai of c,
// where g groups c by Y: zero for a constant (or all-NULL) column, which
// carries no information either way.
//
// Normalization x ↦ (x − lo)/(hi − lo) is monotone, and cumulative entropy
// reads only the sorted multiset of normalized values, in which equal
// floats are interchangeable. So when A is dictionary-coded with a
// dictionary no larger than 2× the rows, the values are put in order by
// counting codes along the dictionary's shared NumericOrder, and every
// Y-group's sorted sequence falls out of one stable scatter of that order
// (rankedGain) — no sort at all, bit-identical to normalizing and sorting
// (sortedGain). Raw-numeric columns, larger dictionaries (ordering one
// costs more than sorting the rows; BenchmarkCumulativeGain) and
// non-finite values sort.
//
// The value buffers are one pass of work in s (nil: allocated).
func cumulativeGain(c *relation.Columnar, ai int, g *relation.Grouping, logTab []float64, s *relation.Scratch) float64 {
	if d := c.Dict(ai); d != nil && d.Len() <= 2*c.NumRows() {
		if order, ok := d.NumericOrder(); ok {
			if gain, ok := rankedGain(c, ai, g, d, order, logTab, s); ok {
				return gain
			}
		}
	}
	return sortedGain(c, ai, g, logTab, s)
}

// sortedGain normalizes and sorts the values of the whole column and of
// each Y-group.
func sortedGain(c *relation.Columnar, ai int, g *relation.Grouping, logTab []float64, s *relation.Scratch) float64 {
	vals := c.AppendNumeric(relation.ScratchSlice[float64](s, c.NumRows())[:0], ai, nil)
	defer relation.FreeSlice(s, vals)
	lo, hi := rangeOf(vals)
	if hi <= lo {
		return 0
	}
	scale := 1 / (hi - lo)
	// Normalization is applied element-wise exactly as the row-store
	// oracle's normalize closure does, so the floats agree bitwise; the
	// buffers are owned here, so they are sorted in place (normalization is
	// monotone and equal floats interchangeable, so sort-after-normalize
	// yields the same sequence the oracle's copy-and-sort produces).
	for i := range vals {
		vals[i] = (vals[i] - lo) * scale
	}
	sort.Float64s(vals)
	h := cumulativeEntropySorted(vals, logTab)
	starts, rows := g.RowLists()
	total := float64(c.NumRows())
	hc := 0.0
	gbuf := relation.ScratchSlice[float64](s, len(vals))[:0]
	defer relation.FreeSlice(s, gbuf)
	for gid := 0; gid < g.N(); gid++ {
		grows := rows[starts[gid]:starts[gid+1]]
		gbuf = c.AppendNumeric(gbuf[:0], ai, grows)
		for i := range gbuf {
			gbuf[i] = (gbuf[i] - lo) * scale
		}
		sort.Float64s(gbuf)
		hc += float64(len(grows)) / total * cumulativeEntropySorted(gbuf, logTab)
	}
	return h - hc
}

// rankedGain computes h(A) − h(A|Y) from d's numeric code order. ok is
// false when the observed range makes normalization non-monotone in
// floating point (an infinite width or scale); the caller then sorts.
func rankedGain(c *relation.Columnar, ai int, g *relation.Grouping, d *relation.Dict, order []uint32, logTab []float64, s *relation.Scratch) (gain float64, ok bool) {
	codes, ids := c.CodeCol(ai).Parts()
	n := c.NumRows()
	counts := relation.ScratchSlice[int32](s, d.Len())
	defer relation.FreeSlice(s, counts)
	clear(counts)
	if ids == nil {
		for _, code := range codes {
			counts[code]++
		}
	} else {
		for _, id := range ids {
			counts[codes[id]]++
		}
	}
	first, last := -1, -1
	for i, code := range order {
		if counts[code] > 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 {
		return 0, true // all NULL
	}
	lo, hi := d.Value(order[first]).Num(), d.Value(order[last]).Num()
	if hi <= lo {
		return 0, true
	}
	scale := 1 / (hi - lo)
	if math.IsInf(hi-lo, 0) || math.IsInf(scale, 0) {
		return 0, false
	}
	// Counting sort: each present code's run, in value order; counts[code]
	// becomes the run's next free position.
	vals := relation.ScratchSlice[float64](s, n-int(counts[0]))[:0]
	defer relation.FreeSlice(s, vals)
	for _, code := range order[first : last+1] {
		k := counts[code]
		if k == 0 {
			continue
		}
		counts[code] = int32(len(vals))
		v := (d.Value(code).Num() - lo) * scale
		for ; k > 0; k-- {
			vals = append(vals, v)
		}
	}
	h := cumulativeEntropySorted(vals, logTab)

	// Stable scatter: gidAt[p] is the Y-group of the row holding sorted
	// position p; walking p upward appends each group's values in order.
	gidAt := relation.ScratchSlice[uint32](s, len(vals))
	defer relation.FreeSlice(s, gidAt)
	end := relation.ScratchSlice[int32](s, g.N()+1) // group sizes, then offsets
	defer relation.FreeSlice(s, end)
	clear(end)
	for row, gid := range g.Codes {
		r := row
		if ids != nil {
			r = int(ids[row])
		}
		if code := codes[r]; code != 0 {
			gidAt[counts[code]] = gid
			counts[code]++
			end[gid+1]++
		}
	}
	for gid := 0; gid < g.N(); gid++ {
		end[gid+1] += end[gid]
	}
	gvals := relation.ScratchSlice[float64](s, len(vals))
	defer relation.FreeSlice(s, gvals)
	for p, gid := range gidAt {
		gvals[end[gid]] = vals[p]
		end[gid]++
	}
	// end[gid] now closes group gid; group gid opens where gid−1 closes.
	total := float64(c.NumRows())
	hc := 0.0
	open := int32(0)
	for gid := 0; gid < g.N(); gid++ {
		hc += float64(g.Counts[gid]) / total * cumulativeEntropySorted(gvals[open:end[gid]], logTab)
		open = end[gid]
	}
	return h - hc, true
}
