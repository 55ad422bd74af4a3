package search_test

// Columnar-vs-row equivalence at the evaluator's real surface: for target
// graphs drawn from TPC-H and TPC-E searches (NULL-dirty generators, mixed
// join-attribute variants, with and without η re-sampling), Searcher.Evaluate
// — the columnar fast path with shared join indexes and the join-prefix
// cache — must return bit-identical Metrics to the row-store pipeline it
// replaced (a row-at-a-time re-sampled path join, CORR and Q), whose answers
// are frozen in testdata/evaluate_golden.json. A -race test hammers one
// shared Searcher from concurrent searches so the evaluation memo, the
// columnar store, the join-index store and each search's prefix memo are
// exercised under parallel MCMC workers.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"github.com/dance-db/dance/internal/experiments"
	"github.com/dance-db/dance/internal/joingraph"
	"github.com/dance-db/dance/internal/search"
)

var bgCtx = context.Background()

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

// evaluateGoldenPath freezes the metrics of every candidate of the
// equivalence sweeps, as exact float bits. The file was captured from the
// row-store pipeline before the row kernels were retired, and must never
// change: any difference is a change in evaluation semantics.
const evaluateGoldenPath = "testdata/evaluate_golden.json"

// evaluateCase is one golden entry: one candidate target graph of one sweep
// and its metrics, each rendered with strconv's exact 'x' format.
type evaluateCase struct {
	Sweep       string `json:"sweep"`
	Candidate   string `json:"candidate"`
	Correlation string `json:"correlation"`
	Quality     string `json:"quality"`
	Weight      string `json:"weight"`
	Price       string `json:"price"`
}

func newEvaluateCase(sweep string, tg *joingraph.TargetGraph, m search.Metrics) evaluateCase {
	bits := func(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }
	return evaluateCase{Sweep: sweep, Candidate: tg.String(),
		Correlation: bits(m.Correlation), Quality: bits(m.Quality), Weight: bits(m.Weight), Price: bits(m.Price)}
}

// evaluateGolden returns the frozen cases of one dataset's sweeps.
func evaluateGolden(t *testing.T, dataset string) []evaluateCase {
	t.Helper()
	buf, err := os.ReadFile(evaluateGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var all map[string][]evaluateCase
	if err := json.Unmarshal(buf, &all); err != nil {
		t.Fatal(err)
	}
	return all[dataset]
}

// equivSweep evaluates every candidate of one sweep and checks it against
// the golden cases from position *next on, advancing *next past them.
func equivSweep(t *testing.T, env *experiments.Env, q experiments.QuerySpec, eta int, want []evaluateCase, next *int) {
	t.Helper()
	sweep := fmt.Sprintf("%s η=%d", q.Name, eta)
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
		m, err := s.Evaluate(bgCtx, tg, req)
		if err != nil {
			t.Fatal(err)
		}
		if *next >= len(want) {
			t.Fatalf("%s candidate %d: not in the golden file (%d cases)", sweep, i, len(want))
		}
		if c := newEvaluateCase(sweep, tg, m); c != want[*next] {
			t.Fatalf("%s candidate %d: columnar metrics\n%+v\n!= row-store golden\n%+v\n(must be bit-identical)",
				sweep, i, c, want[*next])
		}
		*next++
		// A fresh searcher (cold caches) must agree with the warm one.
		cold, err := env.SampledSearcher().Evaluate(bgCtx, tg, req)
		if err != nil {
			t.Fatal(err)
		}
		if cold != m {
			t.Fatalf("%s candidate %d: cold-cache metrics %+v != warm %+v", q.Name, i, cold, m)
		}
	}
}

func TestColumnarEvaluateMatchesRowPathTPCH(t *testing.T) {
	env, err := experiments.NewEnv(experiments.EnvConfig{Dataset: "tpch", Scale: 2, Seed: 1, Rate: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	want, next := evaluateGolden(t, "tpch"), 0
	for _, q := range experiments.TPCHQueries() {
		equivSweep(t, env, q, 0, want, &next)
	}
	// η re-sampling on the longest query.
	equivSweep(t, env, experiments.TPCHQueries()[2], 50, want, &next)
	if next != len(want) {
		t.Fatalf("observed %d candidates, golden has %d", next, len(want))
	}
}

func TestColumnarEvaluateMatchesRowPathTPCE(t *testing.T) {
	env, err := experiments.NewEnv(experiments.EnvConfig{Dataset: "tpce", Scale: 1, Seed: 1, Rate: 0.6, NumInstances: 10})
	if err != nil {
		t.Fatal(err)
	}
	want, next := evaluateGolden(t, "tpce"), 0
	for _, q := range experiments.TPCEQueries() {
		equivSweep(t, env, q, 0, want, &next)
	}
	equivSweep(t, env, experiments.TPCEQueries()[2], 80, want, &next)
	if next != len(want) {
		t.Fatalf("observed %d candidates, golden has %d", next, len(want))
	}
}

// TestSharedSearcherParallelSearchesRace exercises the shared columnar
// store and join-index store from many concurrent searches, each with its
// own join-prefix memo shared by parallel MCMC workers (run under -race in
// CI), and checks every search still reproduces the single-threaded result.
func TestSharedSearcherParallelSearchesRace(t *testing.T) {
	env, err := experiments.NewEnv(experiments.EnvConfig{Dataset: "tpce", Scale: 1, Seed: 1, Rate: 0.6, NumInstances: 10})
	if err != nil {
		t.Fatal(err)
	}
	q := experiments.TPCEQueries()[2]
	mkReq := func(seed int64) search.Request {
		req := env.Request(q, seed)
		req.Iterations = 25
		req.Eta = 80 // η > 0: each seed re-samples with a hasher of its own
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
