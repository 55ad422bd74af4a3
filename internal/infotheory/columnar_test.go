package infotheory

import (
	"math/rand"
	"testing"

	"github.com/dance-db/dance/internal/relation"
)

// randomMetricTable builds a mixed-kind table with NULL dirt for the
// columnar-vs-row equivalence properties. Column m mixes IntValue(x) and
// FloatValue(x) so the IntValue(3) == FloatValue(3.0) grouping rule is
// exercised through dictionary encoding.
func randomMetricTable(rng *rand.Rand, nRows int, nullFrac float64) *relation.Table {
	tab := relation.NewTable("q", relation.NewSchema(
		relation.Cat("k", relation.KindInt),
		relation.Cat("s", relation.KindString),
		relation.Num("v", relation.KindFloat),
		relation.Num("w", relation.KindInt),
		relation.Cat("m", relation.KindFloat),
	))
	for i := 0; i < nRows; i++ {
		row := make([]relation.Value, 5)
		if rng.Float64() >= nullFrac {
			row[0] = relation.IntValue(int64(rng.Intn(5)))
		}
		if rng.Float64() >= nullFrac {
			row[1] = relation.StringValue(string(rune('a' + rng.Intn(3))))
		}
		if rng.Float64() >= nullFrac {
			row[2] = relation.FloatValue(rng.Float64() * 100)
		}
		if rng.Float64() >= nullFrac {
			row[3] = relation.IntValue(int64(rng.Intn(40)))
		}
		x := rng.Intn(4)
		if rng.Float64() >= nullFrac {
			if rng.Intn(2) == 0 {
				row[4] = relation.IntValue(int64(x))
			} else {
				row[4] = relation.FloatValue(float64(x))
			}
		}
		tab.Append(row)
	}
	return tab
}

func TestEntropyColumnarBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		tab := randomMetricTable(rng, 30+rng.Intn(200), []float64{0.05, 0.3, 0.6}[trial%3])
		c := relation.ToColumnar(tab)
		for _, cols := range [][]string{{"k"}, {"m"}, {"k", "s"}, {"k", "s", "m"}} {
			want, err := Entropy(tab, cols...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := entropyColumnar(c, cols, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want != got {
				t.Fatalf("H%v: columnar %v != row %v (must be bit-identical)", cols, got, want)
			}
		}
		wantC, err := conditionalEntropy(tab, []string{"k"}, []string{"s", "m"})
		if err != nil {
			t.Fatal(err)
		}
		gotC, err := conditionalEntropyColumnar(c, []string{"k"}, []string{"s", "m"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if wantC != gotC {
			t.Fatalf("H(k|s,m): columnar %v != row %v", gotC, wantC)
		}
	}
}

func TestCorrelationColumnarBitIdenticalToRows(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cases := [][2][]string{
		{{"v"}, {"k"}},
		{{"v", "w"}, {"k", "s"}},
		{{"k"}, {"s"}},
		{{"k", "v"}, {"m"}},
		{{"m"}, {"k"}},
		{{"v"}, {"m"}},
	}
	for trial := 0; trial < 25; trial++ {
		tab := randomMetricTable(rng, 30+rng.Intn(200), []float64{0.05, 0.3, 0.6}[trial%3])
		for _, xy := range cases {
			want, err := correlationOnRows(tab, xy[0], xy[1])
			if err != nil {
				t.Fatal(err)
			}
			got, err := Correlation(tab, xy[0], xy[1])
			if err != nil {
				t.Fatal(err)
			}
			if want != got {
				t.Fatalf("CORR(%v, %v): columnar %v != row %v (must be bit-identical)", xy[0], xy[1], got, want)
			}
			// And the fully coded columnar (the search path's shape) must
			// agree too.
			got2, err := CorrelationColumnar(relation.ToColumnar(tab), xy[0], xy[1], nil)
			if err != nil {
				t.Fatal(err)
			}
			if want != got2 {
				t.Fatalf("CORR(%v, %v): full-columnar %v != row %v", xy[0], xy[1], got2, want)
			}
		}
	}
}

func TestCorrelationDeterministicAcrossCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tab := randomMetricTable(rng, 300, 0.25)
	first, err := Correlation(tab, []string{"v", "k"}, []string{"s", "m"})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := correlationOnRows(tab, []string{"v", "k"}, []string{"s", "m"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := Correlation(tab, []string{"v", "k"}, []string{"s", "m"})
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("Correlation nondeterministic: %v then %v", first, again)
		}
		againRef, err := correlationOnRows(tab, []string{"v", "k"}, []string{"s", "m"})
		if err != nil {
			t.Fatal(err)
		}
		if againRef != ref {
			t.Fatalf("correlationOnRows nondeterministic: %v then %v", ref, againRef)
		}
	}
}

func TestCorrelationColumnarErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	tab := randomMetricTable(rng, 20, 0.2)
	if _, err := Correlation(tab, []string{"missing"}, []string{"k"}); err == nil {
		t.Fatal("missing X column should error")
	}
	if _, err := Correlation(tab, []string{"v"}, []string{"missing"}); err == nil {
		t.Fatal("missing Y column should error")
	}
	if c, err := Correlation(tab, nil, []string{"k"}); err != nil || c != 0 {
		t.Fatalf("empty X: got %v, %v", c, err)
	}
}

func TestJIFromPairCountsDeterministic(t *testing.T) {
	// EntropyFromCounts no longer sorts, so JI must collect counts in a
	// deterministic order itself.
	rng := rand.New(rand.NewSource(15))
	joint := map[[2]string]int64{}
	for i := 0; i < 200; i++ {
		joint[[2]string{string(rune('a' + rng.Intn(20))), string(rune('A' + rng.Intn(20)))}] += int64(rng.Intn(5) + 1)
	}
	first := jiFromPairCounts(joint)
	for i := 0; i < 50; i++ {
		if got := jiFromPairCounts(joint); got != first {
			t.Fatalf("jiFromPairCounts nondeterministic: %v then %v", first, got)
		}
	}
}
