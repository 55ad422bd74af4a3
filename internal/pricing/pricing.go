// Package pricing implements query-based data pricing for the marketplace
// (the paper's [6], [16]). DANCE buys vertical slices — projection queries
// π_A(D) — so a pricing model assigns a price to an attribute set of an
// instance.
//
// The paper's experiments use "the entropy-based model for the data
// marketplace [16]". The reference gives no closed formula, so we implement
// a model that satisfies the arbitrage-free sufficient conditions the
// related-work section cites (Deep & Koutris: monotone + subadditive):
//
//	price(π_A(D)) = PerAttribute·|A| + RatePerBit · H(A) · scale(|D|)
//
// where H(A) is the joint Shannon entropy of the attribute set in D and
// scale(|D|) = log2(1+|D|) when RowScaling is set. Both terms are monotone
// and subadditive in A (joint entropy is), so decomposing a query into
// pieces can never be cheaper — the arbitrage-free requirement.
package pricing

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/dance-db/dance/internal/infotheory"
	"github.com/dance-db/dance/internal/memo"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/safekey"
)

// Model prices projection queries against a data instance.
type Model interface {
	// PriceProjection returns the price of π_attrs(t).
	PriceProjection(t *relation.Table, attrs []string) (float64, error)
	// Name identifies the model in experiment output.
	Name() string
}

// EntropyModel is the arbitrage-free entropy-based pricing model.
type EntropyModel struct {
	// RatePerBit is the price of one bit of joint entropy.
	RatePerBit float64
	// PerAttribute is a flat floor added per purchased attribute, so that
	// even zero-entropy (constant) columns are not free.
	PerAttribute float64
	// RowScaling multiplies the entropy term by log2(1+rows): a 6M-row
	// instance is worth more than a 100-row sample of identical
	// distribution.
	RowScaling bool
}

// DefaultEntropyModel mirrors the configuration used by the experiments.
func DefaultEntropyModel() EntropyModel {
	return EntropyModel{RatePerBit: 1.0, PerAttribute: 0.5, RowScaling: true}
}

// Name implements Model.
func (m EntropyModel) Name() string { return "entropy" }

// PriceProjection implements Model.
func (m EntropyModel) PriceProjection(t *relation.Table, attrs []string) (float64, error) {
	if len(attrs) == 0 {
		return 0, nil
	}
	seen := map[string]bool{}
	for _, a := range attrs {
		if seen[a] {
			return 0, fmt.Errorf("pricing: duplicate attribute %q in projection of %s", a, t.Name)
		}
		seen[a] = true
		if !t.Schema.Has(a) {
			return 0, fmt.Errorf("pricing: table %s has no attribute %q", t.Name, a)
		}
	}
	h, err := infotheory.Entropy(t, attrs...)
	if err != nil {
		return 0, err
	}
	scale := 1.0
	if m.RowScaling {
		scale = math.Log2(1 + float64(t.NumRows()))
	}
	return m.PerAttribute*float64(len(attrs)) + m.RatePerBit*h*scale, nil
}

// FlatModel prices every attribute at a fixed amount, ignoring content.
// It is the pricing ablation baseline: simple but content-blind.
type FlatModel struct {
	PerAttribute float64
}

// Name implements Model.
func (m FlatModel) Name() string { return "flat" }

// PriceProjection implements Model.
func (m FlatModel) PriceProjection(t *relation.Table, attrs []string) (float64, error) {
	for _, a := range attrs {
		if !t.Schema.Has(a) {
			return 0, fmt.Errorf("pricing: table %s has no attribute %q", t.Name, a)
		}
	}
	return m.PerAttribute * float64(len(attrs)), nil
}

// SampleDiscount is the fraction of the projection price charged for a
// correlated sample at a given rate: DANCE pays for samples during the
// offline phase (Sec 2.1), proportionally to the sampling rate.
func SampleDiscount(fullPrice, rate float64) float64 {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	return fullPrice * rate
}

// cached memoizes projection prices. Price lookups happen inside the MCMC
// inner loop (Algorithm 1 checks p(TG') ≤ B every iteration), so repeated
// entropy computations would dominate.
type cached struct {
	inner Model
	memo  *memo.Memo[float64]
}

// maxCachedPrices bounds a Cached model's memo. Its keys carry
// seller-controlled listing names, so a marketplace that keeps listing new
// tables must not grow it without bound; evicting a price only costs
// recomputing an entropy.
const maxCachedPrices = 1 << 14

// Cached wraps m with a concurrency-safe memo keyed by (table, attrs).
// The cache assumes tables are immutable once priced, which holds for
// marketplace instances.
func Cached(m Model) Model {
	return &cached{inner: m, memo: memo.New[float64](1, maxCachedPrices)}
}

// Name implements Model.
func (c *cached) Name() string { return c.inner.Name() }

// PriceProjection implements Model.
func (c *cached) PriceProjection(t *relation.Table, attrs []string) (float64, error) {
	// Listing and column names are seller-controlled free text:
	// length-prefixed parts keep any name from aliasing another key.
	parts := append([]string{t.Name, strconv.Itoa(t.NumRows())}, attrs...)
	sort.Strings(parts[2:])
	key := safekey.Join(parts...)
	if p, ok := c.memo.Get(key); ok {
		return p, nil
	}
	p, err := c.inner.PriceProjection(t, attrs)
	if err != nil {
		return 0, err
	}
	c.memo.Put(key, p)
	return p, nil
}

// Query is a priced projection query π_Attrs(Instance), the unit DANCE
// recommends for purchase.
type Query struct {
	Instance string
	Attrs    []string
}

// String renders the query as SQL, e.g. "SELECT a, b FROM t;".
func (q Query) String() string {
	return "SELECT " + strings.Join(q.Attrs, ", ") + " FROM " + q.Instance + ";"
}
