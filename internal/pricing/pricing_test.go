package pricing

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/dance-db/dance/internal/relation"
)

func priceTable(n int, seed int64) *relation.Table {
	rng := rand.New(rand.NewSource(seed))
	t := relation.NewTable("t", relation.NewSchema(
		relation.Cat("a", relation.KindInt),
		relation.Cat("b", relation.KindInt),
		relation.Cat("c", relation.KindString),
		relation.Cat("konst", relation.KindString),
	))
	for i := 0; i < n; i++ {
		t.AppendValues(
			relation.IntValue(int64(rng.Intn(16))),
			relation.IntValue(int64(rng.Intn(4))),
			relation.StringValue(string(rune('a'+rng.Intn(8)))),
			relation.StringValue("same"),
		)
	}
	return t
}

func TestEntropyModelBasics(t *testing.T) {
	m := DefaultEntropyModel()
	tab := priceTable(200, 1)
	p, err := m.PriceProjection(tab, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 {
		t.Fatalf("price = %v, want > 0", p)
	}
	zero, err := m.PriceProjection(tab, nil)
	if err != nil || zero != 0 {
		t.Fatalf("empty projection price = %v, %v", zero, err)
	}
	if _, err := m.PriceProjection(tab, []string{"nope"}); err == nil {
		t.Fatal("unknown attribute should error")
	}
	if _, err := m.PriceProjection(tab, []string{"a", "a"}); err == nil {
		t.Fatal("duplicate attribute should error")
	}
}

func TestEntropyModelConstantColumnCostsFloor(t *testing.T) {
	m := EntropyModel{RatePerBit: 1, PerAttribute: 0.5, RowScaling: false}
	tab := priceTable(100, 2)
	p, err := m.PriceProjection(tab, []string{"konst"})
	if err != nil {
		t.Fatal(err)
	}
	if p != 0.5 {
		t.Fatalf("constant column price = %v, want exactly the floor 0.5", p)
	}
}

func TestEntropyModelRowScaling(t *testing.T) {
	small := priceTable(50, 3)
	big := priceTable(5000, 3)
	m := DefaultEntropyModel()
	ps, _ := m.PriceProjection(small, []string{"a", "b"})
	pb, _ := m.PriceProjection(big, []string{"a", "b"})
	if pb <= ps {
		t.Fatalf("bigger instance should cost more: %v vs %v", pb, ps)
	}
}

// Arbitrage-freeness, part 1: monotonicity. Adding attributes never
// decreases the price.
func TestEntropyModelMonotone(t *testing.T) {
	m := DefaultEntropyModel()
	tab := priceTable(300, 4)
	p1, _ := m.PriceProjection(tab, []string{"a"})
	p2, _ := m.PriceProjection(tab, []string{"a", "b"})
	p3, _ := m.PriceProjection(tab, []string{"a", "b", "c"})
	if !(p1 <= p2 && p2 <= p3) {
		t.Fatalf("prices not monotone: %v, %v, %v", p1, p2, p3)
	}
}

// Arbitrage-freeness, part 2: subadditivity. Splitting a query into two
// cannot be cheaper (property test over random attribute splits and data).
func TestQuickEntropyModelSubadditive(t *testing.T) {
	m := DefaultEntropyModel()
	f := func(seed int64, mask uint8) bool {
		tab := priceTable(120, seed)
		all := tab.Schema.Names()
		var left, right []string
		for i, a := range all {
			if mask&(1<<uint(i)) != 0 {
				left = append(left, a)
			} else {
				right = append(right, a)
			}
		}
		if len(left) == 0 || len(right) == 0 {
			return true
		}
		pAll, err := m.PriceProjection(tab, all)
		if err != nil {
			return false
		}
		pL, err := m.PriceProjection(tab, left)
		if err != nil {
			return false
		}
		pR, err := m.PriceProjection(tab, right)
		if err != nil {
			return false
		}
		return pAll <= pL+pR+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFlatModel(t *testing.T) {
	m := FlatModel{PerAttribute: 2}
	tab := priceTable(100, 5)
	p, err := m.PriceProjection(tab, []string{"a", "b"})
	if err != nil || p != 4 {
		t.Fatalf("flat price = %v, %v; want 4", p, err)
	}
	if _, err := m.PriceProjection(tab, []string{"zz"}); err == nil {
		t.Fatal("unknown attribute should error")
	}
	if m.Name() != "flat" {
		t.Fatal("name")
	}
}

func TestSampleDiscount(t *testing.T) {
	if got := SampleDiscount(100, 0.25); got != 25 {
		t.Fatalf("SampleDiscount = %v", got)
	}
	if got := SampleDiscount(100, -1); got != 0 {
		t.Fatalf("negative rate = %v", got)
	}
	if got := SampleDiscount(100, 2); got != 100 {
		t.Fatalf("rate > 1 = %v", got)
	}
}

func TestCachedModelAgreesAndCaches(t *testing.T) {
	tab := priceTable(400, 6)
	inner := DefaultEntropyModel()
	c := Cached(inner)
	if c.Name() != inner.Name() {
		t.Fatal("cached model must not rename")
	}
	want, _ := inner.PriceProjection(tab, []string{"a", "c"})
	for i := 0; i < 3; i++ {
		got, err := c.PriceProjection(tab, []string{"c", "a"}) // order must not matter
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("cached price = %v, want %v", got, want)
		}
	}
	if _, err := c.PriceProjection(tab, []string{"zz"}); err == nil {
		t.Fatal("cached model must propagate errors")
	}
}

// TestCachedKeysDoNotAlias is the regression for the cache key that joined
// the seller-controlled listing and column names with printable
// separators: listing "x" (3 rows, column "a|5|b") and listing "x|3|a"
// (5 rows, column "b") both rendered "x|3|a|5|b", so the second quote was
// served the first one's price.
func TestCachedKeysDoNotAlias(t *testing.T) {
	x := relation.NewTable("x", relation.NewSchema(relation.Cat("a|5|b", relation.KindInt)))
	for i := 0; i < 3; i++ {
		x.AppendValues(relation.IntValue(1))
	}
	x3a := relation.NewTable("x|3|a", relation.NewSchema(relation.Cat("b", relation.KindInt)))
	for i := 0; i < 5; i++ {
		x3a.AppendValues(relation.IntValue(int64(i)))
	}
	inner := DefaultEntropyModel()
	c := Cached(inner)
	for _, q := range []struct {
		t    *relation.Table
		attr string
	}{{x, "a|5|b"}, {x3a, "b"}} {
		want, err := inner.PriceProjection(q.t, []string{q.attr})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.PriceProjection(q.t, []string{q.attr})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("cached price of %s%v = %v, want %v", q.t.Name, []string{q.attr}, got, want)
		}
	}
}

func TestQueryString(t *testing.T) {
	q := Query{Instance: "orders", Attrs: []string{"totalprice", "custkey"}}
	got := q.String()
	if got != "SELECT totalprice, custkey FROM orders;" {
		t.Fatalf("Query.String = %q", got)
	}
	if !strings.HasSuffix(got, ";") {
		t.Fatal("missing terminator")
	}
}
