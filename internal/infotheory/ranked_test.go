package infotheory

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/dance-db/dance/internal/relation"
)

// The ranked cumulative-entropy kernel (counting sort along a dictionary's
// numeric code order plus one stable scatter by Y-group) must reproduce the
// sorted path and the row-store reference bit for bit, on exactly the inputs
// where the orderings could plausibly diverge.

// rankedTable builds a numeric column x and a grouping column g. pick draws
// each x cell (nil for NULL); groups of one row appear whenever g draws a
// fresh id.
func rankedTable(rng *rand.Rand, n int, pick func(i int) *relation.Value) *relation.Table {
	tab := relation.NewTable("r", relation.NewSchema(
		relation.Num("x", relation.KindFloat),
		relation.Cat("g", relation.KindInt),
	))
	for i := 0; i < n; i++ {
		row := make([]relation.Value, 2)
		if v := pick(i); v != nil {
			row[0] = *v
		}
		if rng.Intn(5) == 0 {
			row[1] = relation.IntValue(int64(1000 + i)) // a group of one
		} else {
			row[1] = relation.IntValue(int64(rng.Intn(4)))
		}
		tab.Append(row)
	}
	return tab
}

func val(v relation.Value) *relation.Value { return &v }

// paths returns the numeric gain h(x) − h(x|g) on the ranked path (ok false
// when the kernel declines the column) and on the sorted path.
func paths(t *testing.T, c *relation.Columnar) (ranked float64, ok bool, sorted float64) {
	t.Helper()
	g, err := c.GroupBy(c.Schema().MustIndexes("g"))
	if err != nil {
		t.Fatal(err)
	}
	ai := c.Schema().Index("x")
	logTab := log2Upto(c.NumRows())
	// One scratch for both paths: the ranked path takes the buffers the
	// sorted path left dirty.
	s := relation.NewScratch(nil)
	sorted = sortedGain(c, ai, g, logTab, s)
	d := c.Dict(ai)
	if d == nil || d.Len() > 2*c.NumRows() {
		return 0, false, sorted
	}
	order, ordered := d.NumericOrder()
	if !ordered {
		return 0, false, sorted
	}
	ranked, ok = rankedGain(c, ai, g, d, order, logTab, s)
	return ranked, ok, sorted
}

// checkRanked asserts ranked == sorted == row reference for tab (and for c,
// its encoding, when given), and reports whether the ranked path ran.
func checkRanked(t *testing.T, name string, tab *relation.Table, c *relation.Columnar) bool {
	t.Helper()
	if c == nil {
		c = relation.ToColumnar(tab)
	}
	ranked, ok, sorted := paths(t, c)
	if ok && math.Float64bits(ranked) != math.Float64bits(sorted) {
		t.Fatalf("%s: ranked gain %v != sorted gain %v (must be bit-identical)", name, ranked, sorted)
	}
	x, y := []string{"x"}, []string{"g"}
	want, err := correlationOnRows(c.ToTable(), x, y)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CorrelationColumnar(c, x, y)
	if err != nil {
		t.Fatal(err)
	}
	row, err := Correlation(tab, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(row) != math.Float64bits(want) {
		t.Fatalf("%s: CorrelationColumnar %v, Correlation %v, row oracle %v (must be bit-identical)", name, got, row, want)
	}
	return ok
}

func TestRankedCumulativeEntropyMatchesSortAndRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		name   string
		ranked bool // the ranked kernel must take the column
		pick   func(i int) *relation.Value
	}{
		{"ties", true, func(int) *relation.Value { return val(relation.FloatValue(float64(rng.Intn(6)) / 4)) }},
		{"null-x", true, func(i int) *relation.Value {
			if i%3 == 0 || rng.Intn(4) == 0 {
				return nil
			}
			return val(relation.FloatValue(rng.Float64() * 10))
		}},
		{"constant", true, func(int) *relation.Value { return val(relation.FloatValue(2.5)) }},
		{"signed-zero", true, func(int) *relation.Value {
			switch rng.Intn(4) {
			case 0:
				return val(relation.FloatValue(math.Copysign(0, -1)))
			case 1:
				return val(relation.FloatValue(0))
			case 2:
				return val(relation.IntValue(0))
			}
			return val(relation.FloatValue(rng.NormFloat64()))
		}},
		{"int-float-share-code", true, func(int) *relation.Value {
			if rng.Intn(2) == 0 {
				return val(relation.IntValue(3))
			}
			if rng.Intn(2) == 0 {
				return val(relation.FloatValue(3.0))
			}
			return val(relation.IntValue(int64(rng.Intn(9) - 4)))
		}},
		{"distinct", true, func(int) *relation.Value { return val(relation.FloatValue(rng.Float64()*200 - 100)) }},
		{"nan", false, func(i int) *relation.Value {
			if i%5 == 0 {
				// FloatValue maps NaN to NULL; a raw Value still carries it.
				return val(relation.Value{Kind: relation.KindFloat, F: math.NaN()})
			}
			return val(relation.FloatValue(float64(rng.Intn(20))))
		}},
		{"inf", false, func(i int) *relation.Value {
			if i%5 == 0 {
				return val(relation.FloatValue(math.Inf(1)))
			}
			return val(relation.FloatValue(float64(rng.Intn(20))))
		}},
		{"overflowing-range", true, func(i int) *relation.Value {
			// Finite extremes whose width overflows: the kernel must hand
			// the column back to the sorted path.
			switch i % 5 {
			case 0:
				return val(relation.FloatValue(math.MaxFloat64))
			case 1:
				return val(relation.FloatValue(-math.MaxFloat64))
			}
			return val(relation.FloatValue(float64(rng.Intn(20))))
		}},
	}
	for _, tc := range cases {
		for _, n := range []int{1, 2, 17, 300} {
			tab := rankedTable(rng, n, tc.pick)
			c := relation.ToColumnar(tab)
			ran := checkRanked(t, tc.name, tab, c)
			if tc.name == "overflowing-range" {
				if n > 1 {
					if _, ok, _ := paths(t, c); ok {
						t.Fatalf("%s: ranked kernel accepted an overflowing range", tc.name)
					}
				}
				continue
			}
			if ran != tc.ranked {
				t.Fatalf("%s (n=%d): ranked path ran = %v, want %v", tc.name, n, ran, tc.ranked)
			}
		}
	}
}

// A relation filtered from a larger one shares its dictionary: past 2× its
// own rows, the kernel falls back to sorting (ordering the big dictionary
// would cost more than sorting the few rows).
func TestRankedFallsBackOnLargeDictionary(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	big := rankedTable(rng, 400, func(int) *relation.Value { return val(relation.FloatValue(rng.Float64())) })
	full := relation.ToColumnar(big)
	keep := []int32{3, 50, 51, 200, 399, 7, 8, 9}
	small := full.FilterRows(keep)
	if d := small.Dict(small.Schema().Index("x")); d.Len() <= 2*small.NumRows() {
		t.Fatalf("dictionary of %d codes does not exceed 2×%d rows", d.Len(), small.NumRows())
	}
	if checkRanked(t, "large-dict", small.ToTable(), small) {
		t.Fatal("ranked path ran on a dictionary larger than 2× the rows")
	}
	// The same rows re-encoded get their own small dictionary and rank.
	if !checkRanked(t, "re-encoded", small.ToTable(), nil) {
		t.Fatal("ranked path did not run on a compact dictionary")
	}
}

// NumericOrder is computed lazily on a shared, published dictionary; first
// use from many goroutines at once must be race-free and agree.
func TestNumericOrderConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := relation.ToColumnar(rankedTable(rng, 500, func(int) *relation.Value { return val(relation.FloatValue(rng.Float64())) }))
	d := c.Dict(c.Schema().Index("x"))
	const n = 8
	orders := make([][]uint32, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			orders[i], _ = d.NumericOrder()
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if &orders[i][0] != &orders[0][0] {
			t.Fatal("NumericOrder computed more than once")
		}
	}
	for i := 1; i < len(orders[0]); i++ {
		if d.Value(orders[0][i-1]).Num() > d.Value(orders[0][i]).Num() {
			t.Fatalf("NumericOrder not ascending at %d", i)
		}
	}
}
