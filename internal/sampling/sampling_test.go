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

func TestCorrelatedSampleRateExtremes(t *testing.T) {
	tab := randTable("a", 100, 10, 1)
	full, err := CorrelatedSample(tab, []string{"k"}, 1.0, NewHasher(1))
	if err != nil {
		t.Fatal(err)
	}
	if full.NumRows() != 100 {
		t.Fatalf("rate 1 kept %d rows, want all", full.NumRows())
	}
	empty, err := CorrelatedSample(tab, []string{"k"}, 0, NewHasher(1))
	if err != nil {
		t.Fatal(err)
	}
	if empty.NumRows() != 0 {
		t.Fatalf("rate 0 kept %d rows", empty.NumRows())
	}
	if _, err := CorrelatedSample(tab, []string{"zz"}, 0.5, NewHasher(1)); err == nil {
		t.Fatal("unknown join attr should error")
	}
}

func TestCorrelatedSampleIsValueComplete(t *testing.T) {
	// Correlated sampling must keep either all rows with a join value or
	// none of them.
	tab := randTable("a", 500, 8, 2)
	s, err := CorrelatedSample(tab, []string{"k"}, 0.5, NewHasher(7))
	if err != nil {
		t.Fatal(err)
	}
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
	sa, _ := CorrelatedSample(a, []string{"k"}, 0.5, h)
	sb, _ := CorrelatedSample(b, []string{"k"}, 0.5, h)
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
	s, err := CorrelatedSample(tab, []string{"k"}, 0.9999, NewHasher(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range s.Rows {
		if r[0].IsNull() {
			t.Fatal("NULL join value sampled")
		}
	}
}

func TestSamplePathUsesPredecessorAttrs(t *testing.T) {
	a := randTable("a", 200, 10, 5)
	b := randTable("b", 200, 10, 6)
	steps := []relation.PathStep{{Table: a}, {Table: b, On: []string{"k"}}}
	sampled, err := SamplePath(steps, 0.5, NewHasher(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(sampled) != 2 {
		t.Fatalf("sampled path length %d", len(sampled))
	}
	// Both sides sampled on k with the same hasher: join keys must agree.
	keys := func(tb *relation.Table) map[int64]bool {
		out := map[int64]bool{}
		ki := tb.Schema.Index("k")
		for _, r := range tb.Rows {
			out[r[ki].I] = true
		}
		return out
	}
	ka, kb := keys(sampled[0].Table), keys(sampled[1].Table)
	fullB := keys(b)
	for k := range ka {
		if fullB[k] && !kb[k] {
			t.Fatalf("key %d kept on left but dropped on right", k)
		}
	}
	if _, err := SamplePath(nil, 0.5, NewHasher(1)); err == nil {
		t.Fatal("empty path should error")
	}
}

func TestResampledJoinPathBoundsIntermediates(t *testing.T) {
	// Heavy-hitter keys create a large intermediate join; η must trip.
	a := randTable("a", 400, 3, 7)
	b := randTable("b", 400, 3, 8)
	c := randTable("c", 50, 3, 9)
	steps := []relation.PathStep{
		{Table: a},
		{Table: b, On: []string{"k"}},
		{Table: c, On: []string{"k"}},
	}
	full, _, err := ResampledJoinPath(steps, PathJoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts := PathJoinOptions{Eta: 1000, ResampleRate: 0.34, Hasher: NewHasher(3)}
	res, stats, err := ResampledJoinPath(steps, opts)
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
	got, _, err := ResampledJoinPath(steps, PathJoinOptions{})
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

// Theorem 3.1: the JI estimate is unbiased. We average estimates across many
// hash seeds and compare to the exact value.
func TestJIEstimateApproxUnbiased(t *testing.T) {
	a := randTable("a", 400, 20, 12)
	b := randTable("b", 400, 20, 13)
	exact, err := infotheory.JoinInformativeness(relation.ToColumnar(a), relation.ToColumnar(b), []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	sum, n := 0.0, 0
	for seed := uint64(0); seed < 60; seed++ {
		est, err := EstimateJI(a, b, []string{"k"}, 0.6, NewHasher(seed))
		if err != nil {
			continue // degenerate sample; skip
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
			est, err := EstimateCorrelation(steps, x, y, 0.7, opts)
			if err != nil {
				continue
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
	exact, err := fd.QualitySet(j, fds)
	if err != nil {
		t.Fatal(err)
	}
	sum, n := 0.0, 0
	for seed := uint64(0); seed < 40; seed++ {
		est, err := EstimateQuality(steps, fds, 0.6, PathJoinOptions{Hasher: NewHasher(seed)})
		if err != nil {
			continue
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
		sa, err1 := CorrelatedSample(tab, []string{"k"}, a, h)
		sb, err2 := CorrelatedSample(tab, []string{"k"}, b, h)
		return err1 == nil && err2 == nil && sa.NumRows() <= sb.NumRows()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
