package marketplace

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/safekey"
	"github.com/dance-db/dance/internal/sampling"
)

// sellerIndexCap bounds the sample orders one listing keeps: a shopper
// cycling through seeds or join attributes evicts the oldest order instead
// of growing the seller's resident state.
const sellerIndexCap = 8

// sampleOrder is one table's canonical sample order under one (join attrs,
// seed), the order every Sample and SampleDelta answer is delivered in:
// rows whose join-attribute tuple hashes to a unit in [0, 1), ascending by
// (unit, position), then the NULL-join rows in position order. A rate-ρ
// sample is the rows with unit ≤ ρ, so it is exactly the leading rows of the
// rate-ρ′ sample for any ρ < ρ′, and a (ρ, ρ′] delta appended to it
// reproduces the fresh rate-ρ′ sample bit for bit — rows, dictionary codes
// and metric summation order. The offline store's delta merge relies on
// this prefix property.
//
// A listing ranks every row once per order, so each Sample or SampleDelta
// is a binary-searched slice of it instead of a re-hash and re-sort of the
// whole listing. It costs at most 12 bytes per row.
type sampleOrder struct {
	// perm lists row positions: hashed rows by (hash unit, position), then
	// the NULL-join rows (no unit; delivered only at rate 1) in position
	// order.
	perm []int32
	// units[i] is the hash unit of row perm[i], ascending; one per hashed
	// row.
	units []float64
}

// newSampleOrder ranks every row of t by its join-attribute hash unit.
// cols are the join attributes' column positions in t.
func newSampleOrder(t *relation.Table, cols []int, h sampling.Hasher) *sampleOrder {
	n := len(t.Rows)
	byRow := make([]float64, n) // hash unit per row position
	hashed := make([]int32, 0, n)
	var nulls []int32
	var buf []byte
	for i, r := range t.Rows {
		null := false
		for _, c := range cols {
			if r[c].IsNull() {
				null = true
				break
			}
		}
		if null {
			nulls = append(nulls, int32(i))
			continue
		}
		buf = relation.EncodeKey(buf[:0], r, cols)
		byRow[i] = h.Unit(buf)
		hashed = append(hashed, int32(i))
	}
	// Position breaks unit ties, so the order is a total, deterministic
	// function of the table and the seed.
	slices.SortFunc(hashed, func(a, b int32) int {
		if c := cmp.Compare(byRow[a], byRow[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	units := make([]float64, len(hashed))
	for i, p := range hashed {
		units[i] = byRow[p]
	}
	return &sampleOrder{perm: append(hashed, nulls...), units: units}
}

// cut returns the rows of t whose unit falls in (from, to] — [0, to] when
// from ≤ 0 — in canonical order, plus the NULL-join rows when to ≥ 1 (a
// rate-1 sample is the complete instance).
func (o *sampleOrder) cut(t *relation.Table, from, to float64) *relation.Table {
	lo := 0
	if from > 0 {
		lo = o.above(from)
	}
	hi := o.above(to)
	if to >= 1 {
		hi = len(o.perm)
	}
	out := relation.NewTable(t.Name, t.Schema)
	if lo < hi {
		out.Rows = make([][]relation.Value, hi-lo)
		for i, p := range o.perm[lo:hi] {
			out.Rows[i] = t.Rows[p]
		}
	}
	return out
}

// above returns the rank of the first hashed row with unit > x.
func (o *sampleOrder) above(x float64) int {
	return sort.Search(len(o.units), func(i int) bool { return o.units[i] > x })
}

// sellerIndex is one listing's bounded set of sample orders, keyed by
// (join attrs, seed). Orders are built once, outside the lock, and are
// immutable afterwards; the oldest is evicted past sellerIndexCap.
type sellerIndex struct {
	mu     sync.Mutex             // lockorder: leaf
	orders map[string]*orderEntry // guarded by mu
	keys   []string               // guarded by mu; insertion order, oldest first
}

// orderEntry builds its order exactly once, however many callers race.
type orderEntry struct {
	once  sync.Once
	order *sampleOrder
}

// get returns the order of t for (joinAttrs, seed), building it on first
// use.
func (x *sellerIndex) get(t *relation.Table, joinAttrs []string, seed uint64) (*sampleOrder, error) {
	cols, err := t.Schema.Indexes(joinAttrs...)
	if err != nil {
		// Invalid attributes never reach the cache, so they cannot evict
		// real orders.
		return nil, fmt.Errorf("correlated sample of %s: %w", t.Name, err)
	}
	key := safekey.Join(append([]string{strconv.FormatUint(seed, 10)}, joinAttrs...)...)
	x.mu.Lock()
	e, ok := x.orders[key]
	if !ok {
		if x.orders == nil {
			x.orders = make(map[string]*orderEntry)
		}
		e = &orderEntry{}
		x.orders[key] = e
		x.keys = append(x.keys, key)
		if len(x.keys) > sellerIndexCap {
			delete(x.orders, x.keys[0])
			x.keys = x.keys[1:]
		}
	}
	x.mu.Unlock()
	e.once.Do(func() { e.order = newSampleOrder(t, cols, sampling.NewHasher(seed)) })
	return e.order, nil
}
