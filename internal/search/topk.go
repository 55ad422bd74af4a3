package search

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"github.com/dance-db/dance/internal/joingraph"
)

// The paper's conclusion sketches a future-work extension: "DANCE may
// recommend a number of acquisition options of the top-k scores to the data
// buyer, where the scores can be defined as a combination of correlation,
// data quality, join informativeness, and price", noting that a fair score
// function and a top-k search for non-monotone scores are the open issues.
// This file implements that extension.

// ScoreWeights combines the four metrics into a scalar score. Correlation
// and quality reward; weight (join informativeness) and price penalize.
// Price is normalized by Budget (or its own magnitude when unbounded) so
// the weights are unit-free.
type ScoreWeights struct {
	Correlation float64
	Quality     float64
	Weight      float64
	Price       float64
}

// DefaultScoreWeights balance the axes the way the paper's discussion
// suggests: correlation first, then quality, with gentle penalties.
func DefaultScoreWeights() ScoreWeights {
	return ScoreWeights{Correlation: 1.0, Quality: 0.5, Weight: 0.25, Price: 0.25}
}

// Score evaluates the combined score of metrics m under request r.
func (w ScoreWeights) Score(m Metrics, r Request) float64 {
	priceScale := r.Budget
	if priceScale <= 0 {
		priceScale = m.Price + 1
	}
	weightScale := r.Alpha
	if weightScale <= 0 {
		weightScale = m.Weight + 1
	}
	return w.Correlation*m.Correlation +
		w.Quality*m.Quality -
		w.Weight*(m.Weight/weightScale) -
		w.Price*(m.Price/priceScale)
}

// Option is one ranked acquisition candidate.
type Option struct {
	Result *Result
	Score  float64
}

// TopK runs the two-step heuristic but keeps the k best *distinct* feasible
// target graphs by combined score instead of only the single best
// correlation. The score function is not monotone in any single metric, so
// candidates are collected during the MCMC walk across every Step 1
// I-graph and ranked at the end — exactly the brute-ranking fallback the
// paper anticipates for non-monotone scores.
//
// Walks are segmented exactly like Heuristic's, but every feasible state
// the walk evaluates is a candidate — rejected proposals too — and so is
// every feasible initial state.
func (s *Searcher) TopK(ctx context.Context, req Request, k int, weights ScoreWeights) ([]Option, error) {
	req = req.withDefaults()
	plans, sc, err := s.phase0(ctx, req)
	if err != nil {
		return nil, err
	}
	fold := newTopKFold(req, weights)
	for _, p := range plans {
		if p.tg != nil && p.init.Feasible(req) {
			fold.add(p.tg, p.init)
		}
	}
	units := segmentUnits(plans, req.Iterations)
	err = s.mcmcWalk(ctx, req, plans, units, sc, func(_ int, tg *joingraph.TargetGraph, m Metrics, _ bool) {
		fold.add(tg, m)
	})
	if err != nil {
		return nil, err
	}
	evals := walkEvals(plans, units)
	options := fold.ranked(k, evals)
	if options == nil {
		return nil, fmt.Errorf("search: no feasible acquisition options (budget %v, α %v, β %v): %w",
			req.Budget, req.Alpha, req.Beta, ErrInfeasible)
	}
	return options, nil
}

// topKFold keeps the best score of every distinct feasible target graph
// (by fingerprint). It is safe for concurrent use, and since equal
// fingerprints imply equal metrics (hence equal scores), its contents do
// not depend on the order states are added in — so the ranking is
// identical at every worker count.
type topKFold struct {
	req     Request
	weights ScoreWeights
	mu      sync.Mutex        // lockorder: leaf
	best    map[string]Option // guarded by mu
}

func newTopKFold(req Request, weights ScoreWeights) *topKFold {
	return &topKFold{req: req, weights: weights, best: map[string]Option{}}
}

func (f *topKFold) add(tg *joingraph.TargetGraph, m Metrics) {
	fp := fingerprint(tg)
	score := f.weights.Score(m, f.req)
	f.mu.Lock()
	defer f.mu.Unlock()
	if cur, ok := f.best[fp]; !ok || score > cur.Score {
		f.best[fp] = Option{Result: &Result{TG: tg, Est: m}, Score: score}
	}
}

// ranked returns the k (3 when k ≤ 0) best options, highest score first
// with ties broken by fingerprint, each stamped with the search's
// evaluation count; nil when nothing feasible was added.
func (f *topKFold) ranked(k, evals int) []Option {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.best) == 0 {
		return nil
	}
	if k <= 0 {
		k = 3
	}
	options := make([]Option, 0, len(f.best))
	for _, o := range f.best {
		options = append(options, o)
	}
	sort.SliceStable(options, func(i, j int) bool {
		if options[i].Score != options[j].Score {
			return options[i].Score > options[j].Score
		}
		return fingerprint(options[i].Result.TG) < fingerprint(options[j].Result.TG)
	})
	if len(options) > k {
		options = options[:k]
	}
	for i := range options {
		options[i].Result.Evals = evals
		options[i].Result.Considered = evals
	}
	return options
}
