package sampling

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/infotheory"
	"github.com/dance-db/dance/internal/relation"
)

func randTable(name string, n, keyDomain int, seed int64) *relation.Table {
	rng := rand.New(rand.NewSource(seed))
	t := relation.NewTable(name, relation.NewSchema(
		relation.Cat("k", relation.KindInt),
		relation.Cat("v_"+name, relation.KindInt),
	))
	for i := 0; i < n; i++ {
		t.AppendValues(
			relation.IntValue(int64(rng.Intn(keyDomain))),
			relation.IntValue(int64(rng.Intn(5))),
		)
	}
	return t
}

func TestHasherDeterministicAndUniform(t *testing.T) {
	h := NewHasher(42)
	if h.Unit([]byte("x")) != h.Unit([]byte("x")) {
		t.Fatal("hash not deterministic")
	}
	if NewHasher(1).Unit([]byte("x")) == NewHasher(2).Unit([]byte("x")) {
		t.Fatal("different seeds should give different hashes (overwhelmingly)")
	}
	// Rough uniformity: mean of many hashes close to 0.5.
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		sum += h.Unit([]byte{byte(i), byte(i >> 8), byte(i >> 16)})
	}
	mean := sum / n
	if mean < 0.48 || mean > 0.52 {
		t.Fatalf("hash mean = %v, want ≈ 0.5", mean)
	}
}

// sample is CorrelatedSampleColumnar over t's encoding, decoded.
func sample(t *testing.T, tab *relation.Table, on []string, rate float64, h Hasher) *relation.Table {
	t.Helper()
	s, err := CorrelatedSampleColumnar(relation.ToColumnar(tab), on, rate, h)
	if err != nil {
		t.Fatal(err)
	}
	return s.ToTable()
}

func TestCorrelatedSampleRateExtremes(t *testing.T) {
	tab := randTable("a", 100, 10, 1)
	if full := sample(t, tab, []string{"k"}, 1.0, NewHasher(1)); full.NumRows() != 100 {
		t.Fatalf("rate 1 kept %d rows, want all", full.NumRows())
	}
	if empty := sample(t, tab, []string{"k"}, 0, NewHasher(1)); empty.NumRows() != 0 {
		t.Fatalf("rate 0 kept %d rows", empty.NumRows())
	}
	if _, err := CorrelatedSampleColumnar(relation.ToColumnar(tab), []string{"zz"}, 0.5, NewHasher(1)); err == nil {
		t.Fatal("unknown join attr should error")
	}
}

func TestCorrelatedSampleIsValueComplete(t *testing.T) {
	// Correlated sampling must keep either all rows with a join value or
	// none of them.
	tab := randTable("a", 500, 8, 2)
	s := sample(t, tab, []string{"k"}, 0.5, NewHasher(7))
	fullCounts := map[int64]int{}
	ki := tab.Schema.Index("k")
	for _, r := range tab.Rows {
		fullCounts[r[ki].I]++
	}
	sampleCounts := map[int64]int{}
	for _, r := range s.Rows {
		sampleCounts[r[ki].I]++
	}
	for k, c := range sampleCounts {
		if c != fullCounts[k] {
			t.Fatalf("value %d partially sampled: %d of %d", k, c, fullCounts[k])
		}
	}
}

func TestCorrelatedSampleJoinPreserving(t *testing.T) {
	// Join of samples == sample of join (same kept key set on both sides).
	a := randTable("a", 300, 12, 3)
	b := randTable("b", 300, 12, 4)
	h := NewHasher(11)
	sa := sample(t, a, []string{"k"}, 0.5, h)
	sb := sample(t, b, []string{"k"}, 0.5, h)
	js, err := relation.EquiJoin(sa, sb, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	jFull, _ := relation.EquiJoin(a, b, []string{"k"})
	kept := func(v relation.Value) bool {
		return h.Unit(v.AppendKey(nil)) <= 0.5
	}
	wantRows := 0
	ki := jFull.Schema.Index("k")
	for _, r := range jFull.Rows {
		if kept(r[ki]) {
			wantRows++
		}
	}
	if js.NumRows() != wantRows {
		t.Fatalf("join of samples has %d rows, sample of join has %d", js.NumRows(), wantRows)
	}
}

func TestCorrelatedSampleSkipsNullJoinValues(t *testing.T) {
	tab := relation.NewTable("n", relation.NewSchema(relation.Cat("k", relation.KindInt)))
	tab.AppendValues(relation.Null())
	tab.AppendValues(relation.IntValue(1))
	for _, r := range sample(t, tab, []string{"k"}, 0.9999, NewHasher(1)).Rows {
		if r[0].IsNull() {
			t.Fatal("NULL join value sampled")
		}
	}
}

func TestResampledJoinPathBoundsIntermediates(t *testing.T) {
	// Heavy-hitter keys create a large intermediate join; η must trip.
	a := randTable("a", 400, 3, 7)
	b := randTable("b", 400, 3, 8)
	c := randTable("c", 50, 3, 9)
	steps := columnarizeSteps([]relation.PathStep{
		{Table: a},
		{Table: b, On: []string{"k"}},
		{Table: c, On: []string{"k"}},
	})
	full, _, err := ResampledJoinPathColumnar(steps, PathJoinOptions{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := PathJoinOptions{Eta: 1000, ResampleRate: 0.34, Hasher: NewHasher(3)}
	res, stats, err := ResampledJoinPathColumnar(steps, opts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.IntermediateSizes) != 2 || len(stats.Resampled) != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.IntermediateSizes[0] <= 1000 {
		t.Fatalf("test setup broken: first intermediate %d ≤ η", stats.IntermediateSizes[0])
	}
	if !stats.Resampled[0] {
		t.Fatal("first intermediate should have been re-sampled")
	}
	if stats.Resampled[1] {
		t.Fatal("last join must never be re-sampled (no following join)")
	}
	if res.NumRows() >= full.NumRows() {
		t.Fatalf("re-sampled join (%d rows) not smaller than full (%d rows)", res.NumRows(), full.NumRows())
	}
}

func TestResampledJoinPathNoEtaMatchesPlainJoin(t *testing.T) {
	a := randTable("a", 100, 5, 10)
	b := randTable("b", 100, 5, 11)
	steps := []relation.PathStep{{Table: a}, {Table: b, On: []string{"k"}}}
	got, _, err := ResampledJoinPathColumnar(columnarizeSteps(steps), PathJoinOptions{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := relation.JoinPath(steps)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("rows %d != %d", got.NumRows(), want.NumRows())
	}
}

// sampledJoin samples every step of a join path at rate with one hasher —
// step i > 0 on the attributes it joins its predecessor on, the first step
// on the second step's — and joins the samples with re-sampling per opts
// (Sec 3). This is the estimate's input in Eqs. 7 and 8.
func sampledJoin(steps []relation.PathStep, rate float64, opts PathJoinOptions) (*relation.Columnar, error) {
	sampled := columnarizeSteps(steps)
	for i := range sampled {
		on := sampled[i].On
		if i == 0 {
			on = sampled[1].On
		}
		var err error
		if sampled[i].C, err = CorrelatedSampleColumnar(sampled[i].C, on, rate, opts.Hasher); err != nil {
			return nil, err
		}
	}
	j, _, err := ResampledJoinPathColumnar(sampled, opts, nil, nil)
	return j, err
}

// Theorem 3.1: the JI estimate is unbiased. We average estimates across many
// hash seeds and compare to the exact value.
func TestJIEstimateApproxUnbiased(t *testing.T) {
	a := randTable("a", 400, 20, 12)
	b := randTable("b", 400, 20, 13)
	on := []string{"k"}
	ca, cb := relation.ToColumnar(a), relation.ToColumnar(b)
	exact, err := infotheory.JoinInformativeness(ca, cb, on)
	if err != nil {
		t.Fatal(err)
	}
	sum, n := 0.0, 0
	for seed := uint64(0); seed < 60; seed++ {
		h := NewHasher(seed)
		sa, err := CorrelatedSampleColumnar(ca, on, 0.6, h)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := CorrelatedSampleColumnar(cb, on, 0.6, h)
		if err != nil {
			t.Fatal(err)
		}
		if sa.NumRows() == 0 && sb.NumRows() == 0 {
			continue // degenerate sample; skip
		}
		est, err := infotheory.JoinInformativeness(sa, sb, on)
		if err != nil {
			t.Fatal(err)
		}
		sum += est
		n++
	}
	if n < 50 {
		t.Fatalf("too many degenerate samples: %d of 60", 60-n)
	}
	mean := sum / float64(n)
	if math.Abs(mean-exact) > 0.08 {
		t.Fatalf("JI estimate mean %v too far from exact %v", mean, exact)
	}
}

// Theorem 3.2: correlation and quality estimates stay close to the true
// values in expectation, with and without re-sampling.
func TestCorrelationEstimateApproxUnbiased(t *testing.T) {
	a := randTable("a", 500, 15, 14)
	b := randTable("b", 500, 15, 15)
	steps := []relation.PathStep{{Table: a}, {Table: b, On: []string{"k"}}}
	j, err := relation.JoinPath(steps)
	if err != nil {
		t.Fatal(err)
	}
	x, y := []string{"v_a"}, []string{"v_b"}
	exact, err := infotheory.Correlation(j, x, y)
	if err != nil {
		t.Fatal(err)
	}
	for _, eta := range []int{0, 2000} {
		sum, n := 0.0, 0
		for seed := uint64(0); seed < 40; seed++ {
			opts := PathJoinOptions{Eta: eta, ResampleRate: 0.7, Hasher: NewHasher(seed)}
			js, err := sampledJoin(steps, 0.7, opts)
			if err != nil {
				t.Fatal(err)
			}
			if js.NumRows() == 0 {
				continue // degenerate sample; skip
			}
			est, err := infotheory.CorrelationColumnar(js, x, y, nil)
			if err != nil {
				t.Fatal(err)
			}
			sum += est
			n++
		}
		if n < 30 {
			t.Fatalf("eta=%d: too many degenerate samples", eta)
		}
		mean := sum / float64(n)
		if math.Abs(mean-exact) > 0.15*(1+exact) {
			t.Fatalf("eta=%d: correlation estimate mean %v too far from exact %v", eta, mean, exact)
		}
	}
}

func TestQualityEstimateApproxUnbiased(t *testing.T) {
	// Build tables with a planted FD k → s that has ~10% violations.
	rng := rand.New(rand.NewSource(16))
	a := relation.NewTable("a", relation.NewSchema(
		relation.Cat("k", relation.KindInt),
		relation.Cat("s", relation.KindString),
	))
	for i := 0; i < 600; i++ {
		k := int64(rng.Intn(30))
		s := "v" + string(rune('a'+k%8))
		if rng.Float64() < 0.1 {
			s = "bad"
		}
		a.AppendValues(relation.IntValue(k), relation.StringValue(s))
	}
	b := randTable("b", 600, 30, 17)
	steps := []relation.PathStep{{Table: a}, {Table: b, On: []string{"k"}}}
	j, err := relation.JoinPath(steps)
	if err != nil {
		t.Fatal(err)
	}
	fds := []fd.FD{fd.New("s", "k")}
	exact, err := fd.QualitySetColumnar(relation.ToColumnar(j), fds, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum, n := 0.0, 0
	for seed := uint64(0); seed < 40; seed++ {
		js, err := sampledJoin(steps, 0.6, PathJoinOptions{Hasher: NewHasher(seed)})
		if err != nil {
			t.Fatal(err)
		}
		if js.NumRows() == 0 {
			continue // degenerate sample; skip
		}
		est, err := fd.QualitySetColumnar(js, fds, nil)
		if err != nil {
			t.Fatal(err)
		}
		sum += est
		n++
	}
	if n < 30 {
		t.Fatal("too many degenerate samples")
	}
	mean := sum / float64(n)
	if math.Abs(mean-exact) > 0.08 {
		t.Fatalf("quality estimate mean %v too far from exact %v", mean, exact)
	}
}

// Property: sample size is monotone in rate for a fixed seed.
func TestQuickSampleMonotoneInRate(t *testing.T) {
	tab := randTable("a", 300, 25, 18)
	f := func(r1, r2 uint8, seed uint16) bool {
		a := float64(r1%101) / 100
		b := float64(r2%101) / 100
		if a > b {
			a, b = b, a
		}
		h := NewHasher(uint64(seed))
		c := relation.ToColumnar(tab)
		sa, err1 := CorrelatedSampleColumnar(c, []string{"k"}, a, h)
		sb, err2 := CorrelatedSampleColumnar(c, []string{"k"}, b, h)
		return err1 == nil && err2 == nil && sa.NumRows() <= sb.NumRows()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
