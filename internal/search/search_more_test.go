package search

import (
	"strings"
	"testing"
	"testing/quick"

	"github.com/dance-db/dance/internal/relation"
)

func TestApproxPriceRange(t *testing.T) {
	s, _ := buildSearcher(t, 50)
	req := baseRequest()
	lb, ub, err := s.ApproxPriceRange(bg, req, 16)
	if err != nil {
		t.Fatal(err)
	}
	if lb <= 0 || ub < lb {
		t.Fatalf("approx range [%v, %v] invalid", lb, ub)
	}
	// The approximate range must bracket the heuristic's found price.
	res, err := s.Heuristic(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Est.Price < lb-1e-9 || res.Est.Price > ub+1e-9 {
		t.Fatalf("heuristic price %v outside approx range [%v, %v]", res.Est.Price, lb, ub)
	}
}

func TestApproxPriceRangeVsExact(t *testing.T) {
	s, _ := buildSearcher(t, 51)
	req := baseRequest()
	albm, aub, err := s.ApproxPriceRange(bg, req, 32)
	if err != nil {
		t.Fatal(err)
	}
	elb, eub, err := s.PriceRange(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	// Approximation must stay inside the exact envelope on the low end and
	// cannot exceed the exact UB (which includes whole-instance purchases).
	if albm < elb-1e-9 {
		t.Fatalf("approx LB %v below exact LB %v", albm, elb)
	}
	if aub > eub+1e-9 {
		t.Fatalf("approx UB %v above exact UB %v", aub, eub)
	}
}

func TestEvaluateOnTablesMissingTable(t *testing.T) {
	s, tables := buildSearcher(t, 52)
	req := baseRequest()
	res, err := s.Heuristic(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	partial := map[string]*relation.Table{}
	for k, v := range tables {
		if k != "mid1" {
			partial[k] = v
		}
	}
	if _, err := s.EvaluateOnTables(bg, res.TG, req, partial); err == nil {
		// Only fails when mid1 is actually part of the chosen graph;
		// force the issue with an empty map.
		if _, err := s.EvaluateOnTables(bg, res.TG, req, map[string]*relation.Table{}); err == nil {
			t.Fatal("missing tables should error")
		}
	}
}

func TestMetricsFeasible(t *testing.T) {
	m := Metrics{Correlation: 1, Quality: 0.8, Weight: 2, Price: 50}
	cases := []struct {
		req  Request
		want bool
	}{
		{Request{}, true},            // everything unbounded
		{Request{Budget: 100}, true}, // under budget
		{Request{Budget: 10}, false}, // over budget
		{Request{Alpha: 3}, true},    // under α
		{Request{Alpha: 1}, false},   // over α
		{Request{Beta: 0.5}, true},   // quality ok
		{Request{Beta: 0.9}, false},  // quality low
		{Request{Budget: 100, Alpha: 3, Beta: 0.5}, true},
	}
	for i, c := range cases {
		if got := m.Feasible(c.req); got != c.want {
			t.Errorf("case %d: Feasible = %v, want %v", i, got, c.want)
		}
	}
}

func TestCorrAttrsResolution(t *testing.T) {
	r := Request{SourceAttrs: []string{"a"}, TargetAttrs: []string{"b"}}
	x, y, err := r.corrAttrs()
	if err != nil || x[0] != "a" || y[0] != "b" {
		t.Fatalf("corrAttrs = %v, %v, %v", x, y, err)
	}
	r = Request{TargetAttrs: []string{"p", "q", "r"}}
	x, y, err = r.corrAttrs()
	if err != nil || x[0] != "p" || len(y) != 2 {
		t.Fatalf("source-less corrAttrs = %v, %v, %v", x, y, err)
	}
	if _, _, err := (Request{}).corrAttrs(); err == nil {
		t.Fatal("no targets should error")
	}
}

func TestGreedyNeverAcceptsWorse(t *testing.T) {
	// With Greedy set, the search result can only improve on the initial
	// graph's correlation, never wander below the best seen.
	s, _ := buildSearcher(t, 53)
	req := baseRequest()
	req.Greedy = true
	res, err := s.Heuristic(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Est.Correlation <= 0 {
		t.Fatalf("greedy result correlation = %v", res.Est.Correlation)
	}
}

// Property: every purchase set of a found target graph contains the join
// attributes of its incident edges (you cannot join on attributes you did
// not buy).
func TestQuickPurchaseContainsJoinAttrs(t *testing.T) {
	s, _ := buildSearcher(t, 54)
	f := func(seedRaw uint8) bool {
		req := baseRequest()
		req.Seed = int64(seedRaw)
		res, err := s.Heuristic(bg, req)
		if err != nil {
			return true // infeasible for this seed is fine
		}
		purchase := res.TG.Purchase()
		for _, e := range res.TG.Edges {
			for _, a := range e.JoinAttrsOf(s.G) {
				for _, v := range []int{e.I, e.J} {
					if s.G.Instances[v].Owned {
						continue
					}
					if !contains(purchase[v], a) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func contains(xs []string, v string) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func TestResultStringRendering(t *testing.T) {
	s, _ := buildSearcher(t, 55)
	res, err := s.Heuristic(bg, baseRequest())
	if err != nil {
		t.Fatal(err)
	}
	str := res.TG.String()
	if !strings.Contains(str, "TG{") {
		t.Fatalf("TG String = %q", str)
	}
}
