package search_test

// Columnar-vs-row equivalence at the evaluator's real surface: for target
// graphs drawn from TPC-H and TPC-E searches (NULL-dirty generators, mixed
// join-attribute variants, with and without η re-sampling), Searcher.Evaluate
// — the columnar fast path with shared join indexes and the join-prefix
// cache — must return bit-identical Metrics to the row-store pipeline
// (sampling.ResampledJoinPath + infotheory.CorrelationOnRows + fd.QualitySet).
// A -race test hammers one shared Searcher from concurrent searches so the
// prefix cache, columnar store and join-index store are exercised under
// parallel MCMC workers.

import (
	"context"
	"sync"
	"testing"

	"github.com/dance-db/dance/internal/experiments"
	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/infotheory"
	"github.com/dance-db/dance/internal/joingraph"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/sampling"
	"github.com/dance-db/dance/internal/search"
)

var bgCtx = context.Background()

// rowReferenceEvaluate recomputes Evaluate's metrics through the row-store
// pipeline, from exported primitives only.
func rowReferenceEvaluate(t *testing.T, tg *joingraph.TargetGraph, req search.Request) search.Metrics {
	t.Helper()
	x, y := req.SourceAttrs, req.TargetAttrs
	if len(x) == 0 {
		x, y = req.TargetAttrs[:1], req.TargetAttrs[1:]
	}
	hops, err := tg.JoinPlan()
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]relation.PathStep, len(hops))
	for i, h := range hops {
		steps[i] = relation.PathStep{Table: tg.G.Instances[h.Vertex].Columnar.ToTable(), On: h.On}
	}
	opts := sampling.PathJoinOptions{
		Eta:          req.Eta,
		ResampleRate: req.ResampleRate,
		Hasher:       sampling.NewHasher(uint64(req.Seed) + 1),
	}
	j, _, err := sampling.ResampledJoinPath(steps, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := search.Metrics{Weight: tg.Weight()}
	m.Price, err = tg.Price(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() == 0 {
		return m
	}
	m.Correlation, err = infotheory.CorrelationOnRows(j, x, y)
	if err != nil {
		t.Fatal(err)
	}
	m.Quality, err = fd.QualitySet(j, tg.FDs())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// neighborhood returns tg plus every single-edge variant swap — the moves
// the MCMC proposes — so the equivalence sweep covers the prefix cache's
// reuse pattern, not just one path.
func neighborhood(g *joingraph.Graph, tg *joingraph.TargetGraph) []*joingraph.TargetGraph {
	out := []*joingraph.TargetGraph{tg}
	for ei, e := range tg.Edges {
		variants := g.EdgeBetween(e.I, e.J).Variants
		for v := range variants {
			if v == e.Variant {
				continue
			}
			cand := tg.Clone()
			cand.Edges[ei].Variant = v
			out = append(out, cand)
		}
	}
	return out
}

func equivSweep(t *testing.T, env *experiments.Env, q experiments.QuerySpec, eta int) {
	t.Helper()
	req := env.Request(q, 7)
	req.Iterations = 15
	req.Workers = 1
	req.Eta = eta
	if eta > 0 {
		req.ResampleRate = 0.5
	}
	s := env.SampledSearcher()
	res, err := s.Heuristic(bgCtx, req)
	if err != nil {
		t.Fatal(err)
	}
	for i, tg := range neighborhood(env.Sampled, res.TG) {
		got, err := s.Evaluate(bgCtx, tg, req)
		if err != nil {
			t.Fatal(err)
		}
		want := rowReferenceEvaluate(t, tg, req)
		if got != want {
			t.Fatalf("%s candidate %d (η=%d): columnar metrics %+v != row metrics %+v (must be bit-identical)",
				q.Name, i, eta, got, want)
		}
		// A fresh searcher (cold caches) must agree with the warm one.
		cold, err := env.SampledSearcher().Evaluate(bgCtx, tg, req)
		if err != nil {
			t.Fatal(err)
		}
		if cold != got {
			t.Fatalf("%s candidate %d: cold-cache metrics %+v != warm %+v", q.Name, i, cold, got)
		}
	}
}

func TestColumnarEvaluateMatchesRowPathTPCH(t *testing.T) {
	env, err := experiments.NewEnv(experiments.EnvConfig{Dataset: "tpch", Scale: 2, Seed: 1, Rate: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range experiments.TPCHQueries() {
		equivSweep(t, env, q, 0)
	}
	// η re-sampling on the longest query.
	equivSweep(t, env, experiments.TPCHQueries()[2], 50)
}

func TestColumnarEvaluateMatchesRowPathTPCE(t *testing.T) {
	env, err := experiments.NewEnv(experiments.EnvConfig{Dataset: "tpce", Scale: 1, Seed: 1, Rate: 0.6, NumInstances: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range experiments.TPCEQueries() {
		equivSweep(t, env, q, 0)
	}
	equivSweep(t, env, experiments.TPCEQueries()[2], 80)
}

// TestSharedSearcherParallelSearchesRace exercises the shared columnar
// store, join-index store and join-prefix cache from many concurrent
// searches with parallel MCMC workers (run under -race in CI), and checks
// every search still reproduces the single-threaded result.
func TestSharedSearcherParallelSearchesRace(t *testing.T) {
	env, err := experiments.NewEnv(experiments.EnvConfig{Dataset: "tpce", Scale: 1, Seed: 1, Rate: 0.6, NumInstances: 10})
	if err != nil {
		t.Fatal(err)
	}
	q := experiments.TPCEQueries()[2]
	mkReq := func(seed int64) search.Request {
		req := env.Request(q, seed)
		req.Iterations = 25
		req.Eta = 80 // η > 0 keys the prefix cache on the sampling options too
		req.ResampleRate = 0.5
		return req
	}

	// Single-threaded reference results, one per seed, on a fresh searcher.
	seeds := []int64{1, 2, 3}
	want := map[int64]search.Metrics{}
	for _, seed := range seeds {
		req := mkReq(seed)
		req.Workers = 1
		res, err := env.SampledSearcher().Heuristic(bgCtx, req)
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = res.Est
	}

	shared := env.SampledSearcher()
	var wg sync.WaitGroup
	errs := make(chan error, len(seeds)*3)
	for rep := 0; rep < 3; rep++ {
		for _, seed := range seeds {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				req := mkReq(seed)
				req.Workers = 4
				res, err := shared.Heuristic(bgCtx, req)
				if err != nil {
					errs <- err
					return
				}
				if res.Est != want[seed] {
					t.Errorf("seed %d: shared-searcher metrics %+v != reference %+v", seed, res.Est, want[seed])
				}
			}(seed)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
