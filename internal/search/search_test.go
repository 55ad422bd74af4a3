package search

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/joingraph"
	"github.com/dance-db/dance/internal/pricing"
	"github.com/dance-db/dance/internal/relation"
)

var bg = context.Background()

// testQuoter prices projections on the instances' own tables.
type testQuoter struct {
	model  pricing.Model
	tables map[string]*relation.Table
}

func (q *testQuoter) QuoteProjection(_ context.Context, name string, attrs []string) (float64, error) {
	return q.model.PriceProjection(q.tables[name], attrs)
}

// scenario builds a 5-instance marketplace with a planted correlation chain:
//
//	src(key1, xval) — mid1(key1, key2) — mid2(key2, key3) — tgt1(key3, yval)
//	                                                  \\— tgt2(key1, yrnd)
//
// xval is driven by key1; key2/key3 deterministically derive from key1 via
// the mid tables; yval is driven by key3 — so the src→tgt1 chain carries
// real correlation while tgt2 offers the same attribute name with noise.
func scenario(seed int64) ([]*joingraph.Instance, map[string]*relation.Table) {
	rng := rand.New(rand.NewSource(seed))
	const n = 400

	src := relation.NewTable("src", relation.NewSchema(
		relation.Cat("key1", relation.KindInt),
		relation.Num("xval", relation.KindFloat),
	))
	mid1 := relation.NewTable("mid1", relation.NewSchema(
		relation.Cat("key1", relation.KindInt),
		relation.Cat("key2", relation.KindInt),
	))
	mid2 := relation.NewTable("mid2", relation.NewSchema(
		relation.Cat("key2", relation.KindInt),
		relation.Cat("key3", relation.KindInt),
	))
	tgt1 := relation.NewTable("tgt1", relation.NewSchema(
		relation.Cat("key3", relation.KindInt),
		relation.Cat("yval", relation.KindString),
	))
	tgt2 := relation.NewTable("tgt2", relation.NewSchema(
		relation.Cat("key1", relation.KindInt),
		relation.Cat("yval", relation.KindString),
	))

	for i := 0; i < n; i++ {
		k1 := int64(rng.Intn(12))
		src.AppendValues(relation.IntValue(k1), relation.FloatValue(float64(k1)*10+rng.Float64()))
		// tgt2's key domain only partially overlaps src's, so the edge has
		// strictly positive join informativeness (unmatched values).
		tgt2.AppendValues(relation.IntValue(2+int64(rng.Intn(12))), relation.StringValue(string(rune('a'+rng.Intn(6)))))
	}
	// mid1 misses key1 ∈ {10, 11}: every path out of src has positive JI.
	// Keys map to *contiguous* ranges (k/2, not k%m) so that yval groups
	// correspond to xval ranges — a signal the normalized cumulative
	// entropy correlation sees strongly.
	for k1 := int64(0); k1 < 10; k1++ {
		mid1.AppendValues(relation.IntValue(k1), relation.IntValue(k1/2))
	}
	for k2 := int64(0); k2 < 6; k2++ {
		mid2.AppendValues(relation.IntValue(k2), relation.IntValue(k2/2))
	}
	for k3 := int64(0); k3 < 3; k3++ {
		tgt1.AppendValues(relation.IntValue(k3), relation.StringValue(string(rune('a'+k3))))
	}

	tables := map[string]*relation.Table{
		"src": src, "mid1": mid1, "mid2": mid2, "tgt1": tgt1, "tgt2": tgt2,
	}
	insts := []*joingraph.Instance{
		{Name: "src", Columnar: relation.ToColumnar(src), FullRows: n, Owned: true},
		{Name: "mid1", Columnar: relation.ToColumnar(mid1), FullRows: 12, FDs: []fd.FD{fd.New("key2", "key1")}},
		{Name: "mid2", Columnar: relation.ToColumnar(mid2), FullRows: 6, FDs: []fd.FD{fd.New("key3", "key2")}},
		{Name: "tgt1", Columnar: relation.ToColumnar(tgt1), FullRows: 3, FDs: []fd.FD{fd.New("yval", "key3")}},
		{Name: "tgt2", Columnar: relation.ToColumnar(tgt2), FullRows: n},
	}
	return insts, tables
}

func buildSearcher(t *testing.T, seed int64) (*Searcher, map[string]*relation.Table) {
	t.Helper()
	insts, tables := scenario(seed)
	g, err := joingraph.Build(insts, joingraph.Config{
		Quoter: &testQuoter{model: pricing.Cached(pricing.DefaultEntropyModel()), tables: tables},
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewSearcher(g), tables
}

func baseRequest() Request {
	return Request{
		SourceAttrs: []string{"xval"},
		TargetAttrs: []string{"yval"},
		Budget:      1e9,
		Alpha:       10,
		Beta:        0,
		Iterations:  60,
		Seed:        3,
	}
}

func TestHeuristicFindsFeasible(t *testing.T) {
	s, _ := buildSearcher(t, 1)
	res, err := s.Heuristic(bg, baseRequest())
	if err != nil {
		t.Fatal(err)
	}
	if res.TG == nil {
		t.Fatal("nil target graph")
	}
	if res.Est.Correlation <= 0 {
		t.Fatalf("correlation = %v, want > 0", res.Est.Correlation)
	}
	// The result must cover both requested attributes.
	if _, ok := res.TG.Assign["xval"]; !ok {
		t.Fatal("xval not assigned")
	}
	if _, ok := res.TG.Assign["yval"]; !ok {
		t.Fatal("yval not assigned")
	}
	if res.Evals == 0 {
		t.Fatal("no evaluations recorded")
	}
}

func TestHeuristicPrefersCorrelatedPath(t *testing.T) {
	// tgt2 offers yval cheaply over one hop but with noise; the planted
	// chain via tgt1 has real correlation. With a generous budget the
	// search should reach correlation well above the noise level.
	s, tables := buildSearcher(t, 2)
	res, err := s.Heuristic(bg, baseRequest())
	if err != nil {
		t.Fatal(err)
	}
	real, err := s.EvaluateOnTables(bg, res.TG, baseRequest(), tables)
	if err != nil {
		t.Fatal(err)
	}
	if real.Correlation < 0.2 {
		t.Fatalf("real correlation = %v, expected the planted signal (> 0.2)", real.Correlation)
	}
}

func TestBruteForceAtLeastHeuristic(t *testing.T) {
	s, _ := buildSearcher(t, 3)
	req := baseRequest()
	h, err := s.Heuristic(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := s.BruteForce(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if bf.Est.Correlation < h.Est.Correlation-1e-9 {
		t.Fatalf("brute force corr %v < heuristic %v", bf.Est.Correlation, h.Est.Correlation)
	}
	if bf.Evals <= h.Evals {
		t.Fatalf("brute force evals (%d) should exceed heuristic evals (%d)", bf.Evals, h.Evals)
	}
}

func TestBudgetConstraint(t *testing.T) {
	s, _ := buildSearcher(t, 4)
	req := baseRequest()
	req.Budget = 1e-6 // nothing is affordable
	if _, err := s.Heuristic(bg, req); err == nil {
		t.Fatal("unaffordable request should fail")
	}
	if _, err := s.BruteForce(bg, req); err == nil {
		t.Fatal("unaffordable brute force should fail")
	}
}

func TestAlphaConstraint(t *testing.T) {
	s, _ := buildSearcher(t, 5)
	req := baseRequest()
	req.Alpha = 1e-9 // no multi-edge I-graph can be this informative
	if _, err := s.Heuristic(bg, req); err == nil {
		t.Fatal("alpha-infeasible request should fail")
	}
}

func TestBetaConstraint(t *testing.T) {
	s, _ := buildSearcher(t, 6)
	req := baseRequest()
	req.Beta = 1.01 // quality cannot exceed 1
	if _, err := s.Heuristic(bg, req); err == nil {
		t.Fatal("beta-infeasible request should fail")
	}
}

func TestSourcelessRequest(t *testing.T) {
	s, _ := buildSearcher(t, 7)
	req := baseRequest()
	req.SourceAttrs = nil
	req.TargetAttrs = []string{"xval", "yval"}
	res, err := s.Heuristic(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.TG == nil {
		t.Fatal("nil result")
	}
	req.TargetAttrs = []string{"yval"}
	if _, err := s.Heuristic(bg, req); err == nil {
		t.Fatal("source-less single-attribute request should fail")
	}
}

func TestUnknownAttributeFails(t *testing.T) {
	s, _ := buildSearcher(t, 8)
	req := baseRequest()
	req.TargetAttrs = []string{"no_such_attr"}
	if _, err := s.Heuristic(bg, req); err == nil {
		t.Fatal("unknown target attribute should fail")
	}
	if _, err := s.BruteForce(bg, req); err == nil {
		t.Fatal("unknown target attribute should fail in brute force")
	}
}

func TestPriceRange(t *testing.T) {
	s, _ := buildSearcher(t, 9)
	req := baseRequest()
	lb, ub, err := s.PriceRange(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if lb <= 0 || ub < lb {
		t.Fatalf("price range [%v, %v] invalid", lb, ub)
	}
	// Budget = UB must be feasible.
	req.Budget = ub
	if _, err := s.Heuristic(bg, req); err != nil {
		t.Fatalf("budget=UB should be feasible: %v", err)
	}
}

func TestEvaluateCaching(t *testing.T) {
	s, _ := buildSearcher(t, 10)
	req := baseRequest()
	res, err := s.Heuristic(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := s.Evaluate(bg, res.TG, req)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.Evaluate(bg, res.TG, req)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("cached evaluation differs")
	}
}

func TestEvaluateOnTablesMatchesFullRateSamples(t *testing.T) {
	// The samples in this scenario ARE the full tables, so sample metrics
	// and full-table metrics must agree exactly.
	s, tables := buildSearcher(t, 11)
	req := baseRequest()
	res, err := s.Heuristic(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	est, err := s.Evaluate(bg, res.TG, req)
	if err != nil {
		t.Fatal(err)
	}
	real, err := s.EvaluateOnTables(bg, res.TG, req, tables)
	if err != nil {
		t.Fatal(err)
	}
	if diff := est.Correlation - real.Correlation; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("est corr %v != real corr %v at rate 1", est.Correlation, real.Correlation)
	}
}

// Variant-swap scenario: two instances share {jkey, rkey}. rkey matches
// one-to-one (JI 0, the initial minimal-weight variant) but pairs rows at
// random, destroying correlation; jkey joins coarser groups (higher JI) but
// carries the planted x↔y correlation. Algorithm 1 must escape the initial
// variant.
func TestMCMCFindsBetterVariant(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n = 300
	a := relation.NewTable("a", relation.NewSchema(
		relation.Cat("jkey", relation.KindInt),
		relation.Cat("rkey", relation.KindInt),
		relation.Cat("x", relation.KindString),
	))
	b := relation.NewTable("b", relation.NewSchema(
		relation.Cat("jkey", relation.KindInt),
		relation.Cat("rkey", relation.KindInt),
		relation.Cat("y", relation.KindString),
	))
	permB := rng.Perm(n)
	for i := 0; i < n; i++ {
		k := int64(i % 8)
		a.AppendValues(relation.IntValue(k), relation.IntValue(int64(i)),
			relation.StringValue(string(rune('a'+k))))
		// b's jkey domain [3,10] only partially overlaps a's [0,7] with
		// *several* unmatched values per side, so the jkey variant has
		// JI > 0 (ambiguous NULL pairings) while rkey matches one-to-one
		// (JI = 0) and stays the minimal-weight initial choice.
		kb := int64(permB[i]%8) + 3
		b.AppendValues(relation.IntValue(kb), relation.IntValue(int64(i)),
			relation.StringValue(string(rune('a'+kb))))
	}
	tables := map[string]*relation.Table{"a": a, "b": b}
	insts := []*joingraph.Instance{
		{Name: "a", Columnar: relation.ToColumnar(a), FullRows: n, Owned: true},
		{Name: "b", Columnar: relation.ToColumnar(b), FullRows: n},
	}
	g, err := joingraph.Build(insts, joingraph.Config{
		Quoter: &testQuoter{model: pricing.Cached(pricing.DefaultEntropyModel()), tables: tables},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Precondition: rkey variant is the minimal-weight one.
	e := g.EdgeBetween(0, 1)
	if got := e.Variants[e.MinVariant()].JoinAttrs; len(got) != 1 || got[0] != "rkey" {
		t.Fatalf("test setup: expected rkey to be the minimal variant, got %v", got)
	}

	s := NewSearcher(g)
	req := Request{
		SourceAttrs: []string{"x"},
		TargetAttrs: []string{"y"},
		Budget:      1e9,
		Alpha:       10,
		Iterations:  80,
		Seed:        5,
	}
	res, err := s.Heuristic(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	usedAttrs := strings.Join(res.TG.Edges[0].JoinAttrsOf(g), ",")
	if !strings.Contains(usedAttrs, "jkey") {
		t.Fatalf("MCMC stayed on the uncorrelated variant %q (corr=%v)", usedAttrs, res.Est.Correlation)
	}
	if res.Est.Correlation < 1 {
		t.Fatalf("correlation = %v, expected ≈ 3 bits on the jkey variant", res.Est.Correlation)
	}
}
