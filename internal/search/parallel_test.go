package search

import (
	"fmt"
	"sync"
	"testing"
)

// The tentpole guarantee of the concurrent engine: for a fixed seed the
// worker count changes wall-clock time only. Segmentation and RNG streams
// are derived from (Seed, candidate, segment) — never from Workers — and
// the reduction is in (candidate, segment) order, so every worker count
// must reproduce workers=1 bit for bit. The greedy climb fans each step's
// neighbour evaluations over indexed slots and must match just the same.
func TestHeuristicParallelMatchesSerial(t *testing.T) {
	for _, run := range []struct {
		name   string
		search func(*Searcher, Request) (*Result, error)
	}{
		{"heuristic", func(s *Searcher, r Request) (*Result, error) { return s.Heuristic(bg, r) }},
		{"greedy", func(s *Searcher, r Request) (*Result, error) { return s.GreedyAcquire(bg, r) }},
	} {
		for _, seed := range []int64{1, 3, 9} {
			req := baseRequest()
			req.Seed = seed
			req.Workers = 1

			s1, _ := buildSearcher(t, 1)
			r1, err := run.search(s1, req)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 8} {
				par := req
				par.Workers = workers
				s2, _ := buildSearcher(t, 1)
				r2, err := run.search(s2, par)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, fmt.Sprintf("%s seed %d workers %d", run.name, seed, workers), r1, r2)
			}
		}
	}
}

// sameResult fails unless a and b agree bit for bit: target graph, metrics
// and counters.
func sameResult(t *testing.T, what string, a, b *Result) {
	t.Helper()
	if fingerprint(a.TG) != fingerprint(b.TG) {
		t.Fatalf("%s: parallel TG differs from serial:\n%s\nvs\n%s", what, fingerprint(a.TG), fingerprint(b.TG))
	}
	if a.Est != b.Est {
		t.Fatalf("%s: metrics differ: %+v vs %+v", what, a.Est, b.Est)
	}
	if a.Evals != b.Evals || a.Considered != b.Considered {
		t.Fatalf("%s: counters differ: evals %d/%d considered %d/%d", what, a.Evals, b.Evals, a.Considered, b.Considered)
	}
}

// segmentUnits must flatten candidate-major with per-candidate iteration
// counts summing to exactly ℓ — the reduction and the Evals/Considered
// accounting both lean on that shape.
func TestSegmentUnitsPartition(t *testing.T) {
	plans := []chainPlan{{segs: 7}, {}, {segs: 3}}
	units := segmentUnits(plans, 100)
	if len(units) != 10 {
		t.Fatalf("len(units) = %d, want 10", len(units))
	}
	sums := map[int]int{}
	prevCand, prevSeg := -1, -1
	for _, u := range units {
		if u.cand < prevCand || (u.cand == prevCand && u.seg != prevSeg+1) {
			t.Fatalf("units out of (candidate, segment) order: %+v", units)
		}
		if u.cand != prevCand {
			prevSeg = -1
		}
		prevCand, prevSeg = u.cand, u.seg
		sums[u.cand] += u.iters
	}
	if sums[0] != 100 || sums[2] != 100 || sums[1] != 0 {
		t.Fatalf("per-candidate iteration sums = %v, want 100 for candidates 0 and 2", sums)
	}
}

func TestTopKParallelMatchesSerial(t *testing.T) {
	for _, run := range []struct {
		name   string
		search func(*Searcher, Request) ([]Option, error)
	}{
		{"topk", func(s *Searcher, r Request) ([]Option, error) { return s.TopK(bg, r, 3, DefaultScoreWeights()) }},
		{"greedy", func(s *Searcher, r Request) ([]Option, error) {
			return s.GreedyTopK(bg, r, 3, DefaultScoreWeights())
		}},
	} {
		for _, seed := range []int64{1, 3, 9} {
			req := baseRequest()
			req.Seed = seed
			req.Workers = 1

			s1, _ := buildSearcher(t, 1)
			o1, err := run.search(s1, req)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 8} {
				par := req
				par.Workers = workers
				s2, _ := buildSearcher(t, 1)
				o2, err := run.search(s2, par)
				if err != nil {
					t.Fatal(err)
				}
				if len(o1) != len(o2) {
					t.Fatalf("%s seed %d workers %d: option counts differ: %d vs %d", run.name, seed, workers, len(o1), len(o2))
				}
				for i := range o1 {
					what := fmt.Sprintf("%s seed %d workers %d option %d", run.name, seed, workers, i)
					if o1[i].Score != o2[i].Score {
						t.Fatalf("%s: score differs: %v vs %v", what, o1[i].Score, o2[i].Score)
					}
					sameResult(t, what, o1[i].Result, o2[i].Result)
				}
			}
		}
	}
}

// Regression for the stale-cache bug: the evaluator used to memoize on the
// target-graph fingerprint alone, so a Searcher reused across requests
// with different Eta/ResampleRate/Seed served the first request's metrics
// to the second. The cache now keys on the sampling options too.
func TestEvaluateCacheKeyedBySamplingOptions(t *testing.T) {
	s, _ := buildSearcher(t, 10)
	reqA := baseRequest() // Eta = 0: no re-sampling
	res, err := s.Heuristic(bg, reqA)
	if err != nil {
		t.Fatal(err)
	}
	mA, err := s.Evaluate(bg, res.TG, reqA)
	if err != nil {
		t.Fatal(err)
	}

	// A second request over the same Searcher with aggressive re-sampling:
	// intermediate joins shrink, so its metrics must come from a fresh
	// evaluation, not the reqA cache entry.
	reqB := reqA
	reqB.Eta = 5
	reqB.ResampleRate = 0.25
	reqB.Seed = 99
	mB, err := s.Evaluate(bg, res.TG, reqB)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := buildSearcher(t, 10)
	want, err := fresh.Evaluate(bg, res.TG, reqB)
	if err != nil {
		t.Fatal(err)
	}
	if mB != want {
		t.Fatalf("reused searcher served %+v for reqB, fresh searcher computes %+v (stale cache)", mB, want)
	}
	if mB == mA {
		t.Fatalf("re-sampled metrics identical to unsampled (%+v); η=5/ρ=0.25 must change the join", mB)
	}

	// And flipping back still serves reqA's own entry.
	again, err := s.Evaluate(bg, res.TG, reqA)
	if err != nil {
		t.Fatal(err)
	}
	if again != mA {
		t.Fatalf("reqA metrics changed after reqB: %+v vs %+v", again, mA)
	}

	// CORR is asymmetric: swapping the source/target roles of the same
	// attribute set must re-evaluate, not reuse the cached CORR(x;y).
	flipped := reqA
	flipped.SourceAttrs = reqA.TargetAttrs
	flipped.TargetAttrs = reqA.SourceAttrs
	mF, err := s.Evaluate(bg, res.TG, flipped)
	if err != nil {
		t.Fatal(err)
	}
	freshF, _ := buildSearcher(t, 10)
	wantF, err := freshF.Evaluate(bg, res.TG, flipped)
	if err != nil {
		t.Fatal(err)
	}
	if mF != wantF {
		t.Fatalf("flipped X/Y served %+v, fresh searcher computes %+v (stale cache)", mF, wantF)
	}
	if mF.Correlation == mA.Correlation {
		t.Fatalf("CORR(yval;xval) = CORR(xval;yval) = %v; the asymmetric metric should differ", mF.Correlation)
	}
}

// Hammer one Searcher's evaluator and full searches from many goroutines;
// -race validates the sharded cache and chain isolation.
func TestConcurrentSearcherUse(t *testing.T) {
	s, _ := buildSearcher(t, 4)
	req := baseRequest()
	base, err := s.Heuristic(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func(seed int64) {
			defer wg.Done()
			r := req
			r.Seed = seed
			if _, err := s.Heuristic(bg, r); err != nil {
				t.Error(err)
			}
		}(int64(i%3) + 1)
		go func() {
			defer wg.Done()
			m, err := s.Evaluate(bg, base.TG, req)
			if err != nil {
				t.Error(err)
			}
			if m != base.Est {
				t.Errorf("concurrent Evaluate = %+v, want %+v", m, base.Est)
			}
		}()
	}
	wg.Wait()
}
