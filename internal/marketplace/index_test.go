package marketplace

import (
	"errors"
	"math"
	"sync"
	"testing"

	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/sampling"
)

// prefixDemoTable has a small join-key domain and NULL join keys, so every
// sample holds several rows per key and rate 1 adds the NULL-join rows.
func prefixDemoTable() *relation.Table {
	t := relation.NewTable("t", relation.NewSchema(
		relation.Cat("k", relation.KindInt),
		relation.Cat("s", relation.KindString),
	))
	for i := 0; i < 500; i++ {
		k := relation.IntValue(int64(i % 31))
		if i%11 == 0 {
			k = relation.Null()
		}
		t.AppendValues(k, relation.StringValue(string(rune('a'+i%7))))
	}
	return t
}

// TestSellerIndexPrefixProperty pins the canonical-order guarantee the
// offline store's delta merge depends on: for any ρ < ρ′ the rate-ρ sample
// is exactly the leading rows of the rate-ρ′ sample, and the (ρ, ρ′] delta
// is exactly the remainder.
func TestSellerIndexPrefixProperty(t *testing.T) {
	tab := prefixDemoTable()
	m := NewInMemory(nil)
	m.Register(tab, nil)
	const seed = 9
	h := sampling.NewHasher(seed)
	rates := []float64{0.05, 0.2, 0.5, 0.8, 1}
	on := []string{"k"}

	var prev *relation.Table
	var prevRate float64
	for _, r := range rates {
		cur, _, err := m.Sample(bg, "t", on, r, seed)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			if cur.NumRows() < prev.NumRows() {
				t.Fatalf("rate %v sample smaller than rate %v", r, prevRate)
			}
			head := relation.NewTable("t", tab.Schema)
			head.Rows = cur.Rows[:prev.NumRows()]
			rowsEqual(t, "lower-rate sample vs prefix", prev, head)
			delta, _, err := m.SampleDelta(bg, "t", on, prevRate, r, seed)
			if err != nil {
				t.Fatal(err)
			}
			tail := relation.NewTable("t", tab.Schema)
			tail.Rows = cur.Rows[prev.NumRows():]
			rowsEqual(t, "delta vs fresh suffix", delta, tail)
		}
		prev, prevRate = cur, r
	}

	// The rate-1 sample is the complete instance: every row, including the
	// NULL-join ones, which sort last.
	if prev.NumRows() != tab.NumRows() {
		t.Fatalf("rate-1 sample has %d rows, want %d", prev.NumRows(), tab.NumRows())
	}
	nulls := 0
	for _, row := range tab.Rows {
		if row[0].IsNull() {
			nulls++
		}
	}
	for _, row := range prev.Rows[prev.NumRows()-nulls:] {
		if !row[0].IsNull() {
			t.Fatal("NULL-join rows must sort last in the rate-1 sample")
		}
	}

	// Kept rows really are the (from, to] hash band, in ascending unit
	// order.
	mid, _, err := m.SampleDelta(bg, "t", on, 0.2, 0.5, seed)
	if err != nil {
		t.Fatal(err)
	}
	idx := tab.Schema.MustIndexes("k")
	var buf []byte
	lastU := math.Inf(-1)
	for _, row := range mid.Rows {
		buf = relation.EncodeKey(buf[:0], row, idx)
		u := h.Unit(buf)
		if u <= 0.2 || u > 0.5 {
			t.Fatalf("row with unit %v outside (0.2, 0.5]", u)
		}
		if u < lastU {
			t.Fatal("delta rows not in ascending unit order")
		}
		lastU = u
	}

	// Degenerate ranges of an order are empty.
	o := newSampleOrder(tab, idx, h)
	if n := o.cut(tab, 0.5, 0.5).NumRows(); n != 0 {
		t.Fatalf("empty range: %d rows", n)
	}
	if n := o.cut(tab, 0.7, 0.5).NumRows(); n != 0 {
		t.Fatalf("inverted range: %d rows", n)
	}
}

// TestSellerIndexKeepsSameRowsAsColumnarSampler pins that a seller's
// canonical sample keeps exactly the rows the shopper-side columnar sampler
// keeps at the same rate and seed (the same hash band), only ordered
// canonically.
func TestSellerIndexKeepsSameRowsAsColumnarSampler(t *testing.T) {
	tab := prefixDemoTable()
	m := NewInMemory(nil)
	m.Register(tab, nil)
	on := []string{"k"}
	for _, rate := range []float64{0.1, 0.4, 0.9} {
		got, _, err := m.Sample(bg, "t", on, rate, 4)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sampling.CorrelatedSampleColumnar(relation.ToColumnar(tab), on, rate, sampling.NewHasher(4))
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows() != want.NumRows() {
			t.Fatalf("rate %v: seller kept %d rows, columnar sampler %d", rate, got.NumRows(), want.NumRows())
		}
		count := map[string]int{}
		all := []int{0, 1}
		var buf []byte
		for _, r := range got.Rows {
			buf = relation.EncodeKey(buf[:0], r, all)
			count[string(buf)]++
		}
		for _, r := range want.ToTable().Rows {
			buf = relation.EncodeKey(buf[:0], r, all)
			if count[string(buf)]--; count[string(buf)] < 0 {
				t.Fatalf("rate %v: seller kept a different multiset of rows", rate)
			}
		}
	}
}

// indexSize reports a listing's resident sample orders and their bytes.
func indexSize(t *testing.T, m *InMemory, name string) (orders, bytes int) {
	t.Helper()
	l, err := m.listing(name)
	if err != nil {
		t.Fatal(err)
	}
	l.index.mu.Lock()
	defer l.index.mu.Unlock()
	for _, e := range l.index.orders {
		bytes += 4*len(e.order.perm) + 8*len(e.order.units)
	}
	return len(l.index.orders), bytes
}

// TestSellerIndexIsBounded: a shopper cycling through seeds (or join
// attributes) cannot grow a listing's index past sellerIndexCap orders of
// at most 12 bytes per row, and evicted orders rebuild identically.
func TestSellerIndexIsBounded(t *testing.T) {
	m := demoMarket()
	rows := 200 // alpha
	for seed := uint64(0); seed < 5*sellerIndexCap; seed++ {
		for _, on := range [][]string{{"k"}, {"state"}, {"k", "state"}} {
			if _, _, err := m.Sample(bg, "alpha", on, 0.3, seed); err != nil {
				t.Fatal(err)
			}
		}
		orders, bytes := indexSize(t, m, "alpha")
		if orders > sellerIndexCap {
			t.Fatalf("seed %d: %d orders resident, cap %d", seed, orders, sellerIndexCap)
		}
		if bytes > 12*rows*orders {
			t.Fatalf("seed %d: %d bytes for %d orders of %d rows, over 12 bytes per row", seed, bytes, orders, rows)
		}
	}
	// Seed 0 was evicted long ago; its rebuilt order still cuts the
	// reference sample.
	l, _ := m.listing("alpha")
	got, _, err := m.Sample(bg, "alpha", []string{"k"}, 0.3, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceSampleRange(l.Table, []string{"k"}, 0, 0.3, sampling.NewHasher(0))
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, "rebuilt order", got, want)

	// Unknown attributes fail without occupying a slot.
	before, _ := indexSize(t, m, "alpha")
	if _, _, err := m.Sample(bg, "alpha", []string{"nope"}, 0.3, 99); err == nil {
		t.Fatal("sampling on an unknown attribute succeeded")
	}
	if after, _ := indexSize(t, m, "alpha"); after != before {
		t.Fatalf("failed sample changed the index: %d → %d orders", before, after)
	}
}

// TestReRegisterInvalidatesIndex: replacing a listing drops its orders, so
// the next sample cuts the new table, not the old table's ranking.
func TestReRegisterInvalidatesIndex(t *testing.T) {
	m := NewInMemory(nil)
	m.Register(demoTable("alpha", 200, 1), nil)
	if _, _, err := m.Sample(bg, "alpha", []string{"k"}, 0.5, 3); err != nil {
		t.Fatal(err)
	}
	replacement := demoTable("alpha", 120, 9)
	m.Register(replacement, nil)
	for _, rate := range []float64{0.5, 1} {
		got, _, err := m.Sample(bg, "alpha", []string{"k"}, rate, 3)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceSampleRange(replacement, []string{"k"}, 0, rate, sampling.NewHasher(3))
		if err != nil {
			t.Fatal(err)
		}
		rowsEqual(t, "re-registered listing", got, want)
	}
}

// TestConcurrentIndexedSampling races Sample and SampleDelta calls on one
// listing — first use of each order included — and checks every answer
// against the reference sampler. Run with -race.
func TestConcurrentIndexedSampling(t *testing.T) {
	m := NewInMemory(nil)
	m.Register(nullHeavyTable(), nil)
	l, _ := m.listing("nullish")
	type job struct {
		on       []string
		from, to float64
		seed     uint64
	}
	var jobs []job
	for seed := uint64(1); seed <= 3; seed++ {
		for _, on := range [][]string{{"k"}, {"tag"}, {"k", "tag"}} {
			jobs = append(jobs, job{on, 0, 0.4, seed}, job{on, 0.4, 1, seed}, job{on, 0.1, 0.7, seed})
		}
	}
	var wg sync.WaitGroup
	for _, jb := range jobs {
		for rep := 0; rep < 3; rep++ {
			wg.Add(1)
			go func(jb job) {
				defer wg.Done()
				var err error
				var got interface{ NumRows() int }
				if jb.from == 0 {
					got, _, err = m.Sample(bg, "nullish", jb.on, jb.to, jb.seed)
				} else {
					got, _, err = m.SampleDelta(bg, "nullish", jb.on, jb.from, jb.to, jb.seed)
				}
				if err != nil {
					t.Error(err)
					return
				}
				want, err := referenceSampleRange(l.Table, jb.on, jb.from, jb.to, sampling.NewHasher(jb.seed))
				if err != nil {
					t.Error(err)
					return
				}
				if got.NumRows() != want.NumRows() {
					t.Errorf("%v (%g, %g] seed %d: %d rows, want %d", jb.on, jb.from, jb.to, jb.seed, got.NumRows(), want.NumRows())
				}
			}(jb)
		}
	}
	wg.Wait()
}

// TestNaNRateIsRejected: NaN fails every range comparison, so it used to
// slip through validation and bill NaN, poisoning the ledger total for
// good. Every sampling entry point must reject it without billing.
func TestNaNRateIsRejected(t *testing.T) {
	m := demoMarket()
	nan := math.NaN()
	calls := map[string]func() error{
		"Sample":               func() error { _, _, err := m.Sample(bg, "alpha", []string{"k"}, nan, 1); return err },
		"SampleDelta from NaN": func() error { _, _, err := m.SampleDelta(bg, "alpha", []string{"k"}, nan, 0.5, 1); return err },
		"SampleDelta to NaN":   func() error { _, _, err := m.SampleDelta(bg, "alpha", []string{"k"}, 0.1, nan, 1); return err },
		"SampleDelta both NaN": func() error { _, _, err := m.SampleDelta(bg, "alpha", []string{"k"}, nan, nan, 1); return err },
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, ErrBadRate) {
			t.Errorf("%s: err %v, want ErrBadRate", name, err)
		}
	}
	if n := len(m.Ledger().Entries()); n != 0 {
		t.Fatalf("rejected calls billed %d ledger entries", n)
	}
	if total := m.Ledger().Total(); total != 0 {
		t.Fatalf("ledger total %v after rejected calls, want 0", total)
	}
}
