package search

import (
	"testing"
)

func TestTopKReturnsRankedDistinctOptions(t *testing.T) {
	s, _ := buildSearcher(t, 20)
	req := baseRequest()
	req.Iterations = 80
	options, err := s.TopK(bg, req, 3, DefaultScoreWeights())
	if err != nil {
		t.Fatal(err)
	}
	if len(options) == 0 {
		t.Fatal("no options")
	}
	// Scores must be non-increasing.
	for i := 1; i < len(options); i++ {
		if options[i].Score > options[i-1].Score+1e-12 {
			t.Fatalf("options not sorted: %v then %v", options[i-1].Score, options[i].Score)
		}
	}
	// All options distinct by fingerprint.
	seen := map[string]bool{}
	for _, o := range options {
		fp := fingerprint(o.Result.TG)
		if seen[fp] {
			t.Fatal("duplicate option")
		}
		seen[fp] = true
		// Every option must be feasible.
		if !o.Result.Est.Feasible(req) {
			t.Fatalf("infeasible option in top-k: %+v", o.Result.Est)
		}
	}
}

func TestTopKBestMatchesHeuristicDirection(t *testing.T) {
	// With correlation-only weights, the top option should be at least as
	// good as the plain heuristic's result (same walk, same evidence).
	s, _ := buildSearcher(t, 21)
	req := baseRequest()
	h, err := s.Heuristic(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	corrOnly := ScoreWeights{Correlation: 1}
	options, err := s.TopK(bg, req, 1, corrOnly)
	if err != nil {
		t.Fatal(err)
	}
	if options[0].Result.Est.Correlation < h.Est.Correlation-1e-9 {
		t.Fatalf("top-1 correlation %v below heuristic %v",
			options[0].Result.Est.Correlation, h.Est.Correlation)
	}
}

func TestTopKDefaultK(t *testing.T) {
	s, _ := buildSearcher(t, 22)
	req := baseRequest()
	options, err := s.TopK(bg, req, 0, DefaultScoreWeights())
	if err != nil {
		t.Fatal(err)
	}
	if len(options) > 3 {
		t.Fatalf("default k should cap at 3, got %d", len(options))
	}
}

func TestTopKInfeasibleFails(t *testing.T) {
	s, _ := buildSearcher(t, 23)
	req := baseRequest()
	req.Budget = 1e-9
	if _, err := s.TopK(bg, req, 3, DefaultScoreWeights()); err == nil {
		t.Fatal("unaffordable top-k should fail")
	}
}

func TestScoreWeights(t *testing.T) {
	w := DefaultScoreWeights()
	req := baseRequest()
	lowPrice := Metrics{Correlation: 1, Quality: 1, Weight: 0.5, Price: 10}
	highPrice := lowPrice
	highPrice.Price = 1e8
	if w.Score(lowPrice, req) <= w.Score(highPrice, req) {
		t.Fatal("cheaper identical option must score higher")
	}
	lowCorr := lowPrice
	lowCorr.Correlation = 0.1
	if w.Score(lowPrice, req) <= w.Score(lowCorr, req) {
		t.Fatal("higher correlation must score higher")
	}
	// Unbounded budget/alpha still produce finite scores.
	free := Request{}
	if s := w.Score(lowPrice, free); s != s || s == 0 {
		_ = s // any finite value is fine; NaN would fail s != s
	}
}
