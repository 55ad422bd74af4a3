// Package infotheory implements the information-theoretic measures the paper
// builds on: Shannon entropy, conditional entropy, mutual information,
// cumulative entropy for numeric attributes (Nguyen et al., used by Def 2.5),
// the mixed-type correlation measure CORR (Def 2.5), and join
// informativeness JI (Def 2.4), all in log base 2.
package infotheory

import (
	"fmt"
	"math"
	"sync/atomic"

	"github.com/dance-db/dance/internal/relation"
)

// log2 guards against log(0); callers never pass p <= 0.
func log2(p float64) float64 { return math.Log2(p) }

// EntropyFromCounts returns the Shannon entropy (bits) of the empirical
// distribution given by non-negative counts. Zero counts are skipped.
// Terms are accumulated with Neumaier-compensated summation — O(n) instead
// of the O(n log n) sort the seed used for float stability — so callers must
// pass counts in a deterministic order (first-appearance order everywhere in
// this repo) for reproducible results; the compensation then keeps the sum
// accurate to the last ulp.
func EntropyFromCounts[N int | int64](counts []N) float64 {
	var total float64
	for _, c := range counts {
		if c < 0 {
			panic(fmt.Sprintf("infotheory: negative count %v", c))
		}
		total += float64(c)
	}
	if total == 0 {
		return 0
	}
	var sum, comp float64
	for _, c := range counts {
		if c <= 0 {
			continue
		}
		p := float64(c) / total
		term := -p * log2(p)
		t := sum + term
		if math.Abs(sum) >= math.Abs(term) {
			comp += (sum - t) + term
		} else {
			comp += (term - t) + sum
		}
		sum = t
	}
	return sum + comp
}

// groupCounts returns the multiplicity of each distinct tuple of the named
// columns, in first-appearance order (the deterministic order entropy terms
// are summed in).
func groupCounts(t *relation.Table, cols []string) ([]int64, error) {
	idx, err := t.Schema.Indexes(cols...)
	if err != nil {
		return nil, err
	}
	ids := make(map[string]int, len(t.Rows)/4+1)
	counts := make([]int64, 0, 16)
	var buf []byte
	for _, r := range t.Rows {
		buf = relation.EncodeKey(buf[:0], r, idx)
		id, ok := ids[string(buf)]
		if !ok {
			id = len(counts)
			ids[string(buf)] = id
			counts = append(counts, 0)
		}
		counts[id]++
	}
	return counts, nil
}

// Entropy returns the joint Shannon entropy H(X) of the named attribute set
// X in t.
func Entropy(t *relation.Table, cols ...string) (float64, error) {
	if len(cols) == 0 || t.NumRows() == 0 {
		return 0, nil
	}
	counts, err := groupCounts(t, cols)
	if err != nil {
		return 0, fmt.Errorf("entropy of %s%v: %w", t.Name, cols, err)
	}
	return EntropyFromCounts(counts), nil
}

// log2Shared is the process-wide table of log2(k) (entry 0 is unused). The
// empirical CDF steps of cumulative entropy are all of the form k/n, so one
// table replaces the per-step log calls that dominate the numeric
// correlation profile: log2(k/n) is evaluated as tab[k] − tab[n]. A
// published table is never written again; growth builds a longer copy and
// publishes it by atomic pointer swap, so readers never lock.
var log2Shared atomic.Pointer[[]float64]

// log2Upto returns a table tab with tab[k] = log2(k) for every k in [0, n].
// Entries are math.Log2 of the same arguments whichever table serves them,
// so results never depend on which call grew the table.
func log2Upto(n int) []float64 {
	for {
		cur := log2Shared.Load()
		var old []float64
		if cur != nil {
			old = *cur
			if len(old) > n {
				return old
			}
		}
		tab := make([]float64, max(n+1, 2*len(old), 1024))
		copy(tab, old)
		for k := len(old); k < len(tab); k++ {
			tab[k] = log2(float64(k))
		}
		if log2Shared.CompareAndSwap(cur, &tab) {
			return tab
		}
	}
}

// cumulativeEntropySorted returns the empirical cumulative entropy
// h(X) = −Σ_{i<n} (x_{i+1} − x_i) · F(x_i) · log2 F(x_i)
// of the ascending sample sorted, where F is the empirical CDF; logTab is a
// log2Upto table covering len(sorted). NULLs must be filtered by the
// caller. The result is non-negative and 0 for constant or empty input.
// The columnar kernel calls it once per conditioning group.
func cumulativeEntropySorted(sorted []float64, logTab []float64) float64 {
	n := len(sorted)
	if n < 2 {
		return 0
	}
	ln := logTab[n]
	h := 0.0
	for i := 0; i < n-1; i++ {
		dx := sorted[i+1] - sorted[i]
		if dx == 0 {
			continue
		}
		f := float64(i+1) / float64(n)
		if f >= 1 {
			continue // log2(1) = 0
		}
		h -= dx * f * (logTab[i+1] - ln)
	}
	return h
}
