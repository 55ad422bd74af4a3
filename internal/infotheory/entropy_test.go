package infotheory

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/dance-db/dance/internal/relation"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestEntropyFromCounts(t *testing.T) {
	cases := []struct {
		counts []int64
		want   float64
	}{
		{nil, 0},
		{[]int64{5}, 0},
		{[]int64{1, 1}, 1},
		{[]int64{1, 1, 1, 1}, 2},
		{[]int64{3, 1}, -(0.75*math.Log2(0.75) + 0.25*math.Log2(0.25))},
		{[]int64{2, 0, 2}, 1}, // zero counts skipped
	}
	for _, c := range cases {
		if got := EntropyFromCounts(c.counts); !almost(got, c.want, 1e-12) {
			t.Errorf("EntropyFromCounts(%v) = %v, want %v", c.counts, got, c.want)
		}
	}
}

func TestEntropyFromCountsNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative count should panic")
		}
	}()
	EntropyFromCounts([]int64{1, -1})
}

func uniformPairs() *relation.Table {
	// X uniform over {a,b}, Y = X (perfectly correlated), Z independent coin.
	tab := relation.NewTable("u", relation.NewSchema(
		relation.Cat("X", relation.KindString),
		relation.Cat("Y", relation.KindString),
		relation.Cat("Z", relation.KindString),
	))
	for i := 0; i < 8; i++ {
		x := "a"
		if i%2 == 1 {
			x = "b"
		}
		z := "p"
		if (i/2)%2 == 1 {
			z = "q"
		}
		tab.AppendValues(relation.StringValue(x), relation.StringValue(x), relation.StringValue(z))
	}
	return tab
}

func TestEntropyOnTable(t *testing.T) {
	tab := uniformPairs()
	hx, err := Entropy(tab, "X")
	if err != nil {
		t.Fatal(err)
	}
	if !almost(hx, 1, 1e-12) {
		t.Fatalf("H(X) = %v, want 1", hx)
	}
	hxy, err := Entropy(tab, "X", "Y")
	if err != nil {
		t.Fatal(err)
	}
	if !almost(hxy, 1, 1e-12) { // Y == X so joint has 2 outcomes
		t.Fatalf("H(X,Y) = %v, want 1", hxy)
	}
	hxz, err := Entropy(tab, "X", "Z")
	if err != nil {
		t.Fatal(err)
	}
	if !almost(hxz, 2, 1e-12) {
		t.Fatalf("H(X,Z) = %v, want 2", hxz)
	}
	if _, err := Entropy(tab, "nope"); err == nil {
		t.Fatal("unknown column should error")
	}
}

func TestConditionalEntropyAndMI(t *testing.T) {
	tab := uniformPairs()
	// H(X|Y) = 0 (Y determines X).
	hxy, err := conditionalEntropyColumnar(relation.ToColumnar(tab), []string{"X"}, []string{"Y"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(hxy, 0, 1e-12) {
		t.Fatalf("H(X|Y) = %v, want 0", hxy)
	}
	// X and Z independent: H(X|Z) = H(X) = 1.
	hxz, _ := conditionalEntropyColumnar(relation.ToColumnar(tab), []string{"X"}, []string{"Z"}, nil)
	if !almost(hxz, 1, 1e-12) {
		t.Fatalf("H(X|Z) = %v, want 1", hxz)
	}
}

func TestCumulativeEntropy(t *testing.T) {
	if got := cumulativeEntropy(nil); got != 0 {
		t.Fatalf("h(empty) = %v", got)
	}
	if got := cumulativeEntropy([]float64{3}); got != 0 {
		t.Fatalf("h(single) = %v", got)
	}
	if got := cumulativeEntropy([]float64{2, 2, 2}); got != 0 {
		t.Fatalf("h(constant) = %v", got)
	}
	// Two points {0, 1}: h = -(1-0) * (1/2) * log2(1/2) = 0.5.
	if got := cumulativeEntropy([]float64{0, 1}); !almost(got, 0.5, 1e-12) {
		t.Fatalf("h({0,1}) = %v, want 0.5", got)
	}
	// Order must not matter.
	a := cumulativeEntropy([]float64{5, 1, 3, 2, 4})
	b := cumulativeEntropy([]float64{1, 2, 3, 4, 5})
	if !almost(a, b, 1e-12) {
		t.Fatalf("cumulative entropy order-dependent: %v vs %v", a, b)
	}
	// Scaling property: h(c·X) = c·h(X) for c > 0.
	xs := []float64{0.5, 1.7, 2.2, 9.1}
	if got, want := cumulativeEntropy(scale(xs, 3)), 3*cumulativeEntropy(xs); !almost(got, want, 1e-9) {
		t.Fatalf("h(3X) = %v, want %v", got, want)
	}
}

func scale(xs []float64, c float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = c * x
	}
	return out
}

func TestCorrelationCategorical(t *testing.T) {
	tab := uniformPairs()
	// CORR(X, Y) = H(X) - H(X|Y) = 1 (perfect).
	c, err := Correlation(tab, []string{"X"}, []string{"Y"})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(c, 1, 1e-12) {
		t.Fatalf("CORR(X,Y) = %v, want 1", c)
	}
	// CORR(X, Z) = 0 (independent).
	cz, err := Correlation(tab, []string{"X"}, []string{"Z"})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(cz, 0, 1e-12) {
		t.Fatalf("CORR(X,Z) = %v, want 0", cz)
	}
}

func TestCorrelationNumeric(t *testing.T) {
	// X numeric determined by Y → CORR = h(X) - 0 = h(X) > 0.
	tab := relation.NewTable("n", relation.NewSchema(
		relation.Num("X", relation.KindFloat),
		relation.Cat("Y", relation.KindString),
	))
	for i := 0; i < 6; i++ {
		y := []string{"a", "b", "c"}[i%3]
		x := float64(i%3) * 10
		tab.AppendValues(relation.FloatValue(x), relation.StringValue(y))
	}
	c, err := Correlation(tab, []string{"X"}, []string{"Y"})
	if err != nil {
		t.Fatal(err)
	}
	if c <= 0 {
		t.Fatalf("numeric CORR = %v, want > 0", c)
	}
}

func TestCorrelationMixed(t *testing.T) {
	tab := relation.NewTable("m", relation.NewSchema(
		relation.Num("X", relation.KindFloat),
		relation.Cat("C", relation.KindString),
		relation.Cat("Y", relation.KindString),
	))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		y := []string{"a", "b"}[i%2]
		tab.AppendValues(
			relation.FloatValue(float64(i%2)*5+rng.Float64()*0.1),
			relation.StringValue(y),
			relation.StringValue(y),
		)
	}
	c, err := Correlation(tab, []string{"X", "C"}, []string{"Y"})
	if err != nil {
		t.Fatal(err)
	}
	// Categorical part contributes exactly H(C) = 1 bit; numeric part > 0.
	if c <= 1 {
		t.Fatalf("mixed CORR = %v, want > 1", c)
	}
	if _, err := Correlation(tab, []string{"missing"}, []string{"Y"}); err == nil {
		t.Fatal("missing X column should error")
	}
	if _, err := Correlation(tab, []string{"X"}, []string{"missing"}); err == nil {
		t.Fatal("missing Y column should error")
	}
}

func TestCorrelationDegenerate(t *testing.T) {
	tab := uniformPairs()
	if c, _ := Correlation(tab, nil, []string{"Y"}); c != 0 {
		t.Fatal("empty X should give 0")
	}
	if c, _ := Correlation(tab, []string{"X"}, nil); c != 0 {
		t.Fatal("empty Y should give 0")
	}
	empty := relation.NewTable("e", tab.Schema)
	if c, _ := Correlation(empty, []string{"X"}, []string{"Y"}); c != 0 {
		t.Fatal("empty table should give 0")
	}
}

// Property: 0 ≤ H(X|Y) ≤ H(X) for random categorical tables.
func TestQuickEntropyInequalities(t *testing.T) {
	f := func(pairs []uint8) bool {
		if len(pairs) == 0 {
			return true
		}
		tab := relation.NewTable("q", relation.NewSchema(
			relation.Cat("X", relation.KindInt),
			relation.Cat("Y", relation.KindInt),
		))
		for _, p := range pairs {
			tab.AppendValues(relation.IntValue(int64(p%5)), relation.IntValue(int64((p/5)%5)))
		}
		hx, _ := Entropy(tab, "X")
		hxy, _ := conditionalEntropyColumnar(relation.ToColumnar(tab), []string{"X"}, []string{"Y"}, nil)
		return hxy >= -1e-9 && hxy <= hx+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: cumulative entropy is non-negative and translation invariant.
func TestQuickCumulativeEntropyInvariance(t *testing.T) {
	f := func(raw []int16, shift int8) bool {
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) / 16
		}
		h := cumulativeEntropy(xs)
		if h < 0 {
			return false
		}
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + float64(shift)
		}
		return almost(h, cumulativeEntropy(shifted), 1e-6*(1+math.Abs(h)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
