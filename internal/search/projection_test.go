package search_test

// Projection is invisible: the evaluator joins column views restricted to a
// request-wide keep set, and every metric must equal measuring the
// unprojected join of the same path — built here from the full encodings,
// without the searcher's views, indexes or prefix cache — bit for bit, at
// every kernel worker count.

import (
	"math"
	"testing"

	"github.com/dance-db/dance/internal/experiments"
	"github.com/dance-db/dance/internal/joingraph"
	"github.com/dance-db/dance/internal/sampling"
	"github.com/dance-db/dance/internal/search"
)

// unprojectedEvaluate joins tg's path over every column of every instance
// and measures it.
func unprojectedEvaluate(t *testing.T, tg *joingraph.TargetGraph, req search.Request, workers int) search.Metrics {
	t.Helper()
	x, y := req.SourceAttrs, req.TargetAttrs
	if len(x) == 0 {
		x, y = req.TargetAttrs[:1], req.TargetAttrs[1:]
	}
	hops, err := tg.JoinPlan()
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]sampling.ColumnarStep, len(hops))
	for i, hp := range hops {
		inst := tg.G.Instances[hp.Vertex]
		steps[i] = sampling.ColumnarStep{C: inst.Columnar, On: hp.On}
	}
	opts := sampling.PathJoinOptions{
		Eta:          req.Eta,
		ResampleRate: req.ResampleRate,
		Hasher:       sampling.NewHasher(uint64(req.Seed) + 1),
		Workers:      workers,
	}
	j, _, err := sampling.ResampledJoinPathColumnar(steps, opts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := search.Metrics{Weight: tg.Weight()}
	if m.Price, err = tg.Price(bgCtx); err != nil {
		t.Fatal(err)
	}
	if err := m.Measure(j, x, y, tg.FDs()); err != nil {
		t.Fatal(err)
	}
	return m
}

func sameBits(a, b search.Metrics) bool {
	return math.Float64bits(a.Correlation) == math.Float64bits(b.Correlation) &&
		math.Float64bits(a.Quality) == math.Float64bits(b.Quality) &&
		math.Float64bits(a.Weight) == math.Float64bits(b.Weight) &&
		math.Float64bits(a.Price) == math.Float64bits(b.Price)
}

func projectionSweep(t *testing.T, env *experiments.Env, q experiments.QuerySpec, eta int) {
	t.Helper()
	req := env.Request(q, 7)
	req.Iterations = 15
	req.Workers = 1
	req.Eta = eta
	if eta > 0 {
		req.ResampleRate = 0.3
	}
	res, err := env.SampledSearcher().Heuristic(bgCtx, req)
	if err != nil {
		t.Fatal(err)
	}
	tgs := neighborhood(env.Sampled, res.TG)

	// Guard against a vacuous pass: the keep set must drop columns the
	// unprojected join would carry.
	keep := env.SampledSearcher().KeepNames(req)
	dropped := 0
	for _, v := range res.TG.Vertices {
		for _, name := range env.Sampled.Instances[v].Columnar.Schema().Names() {
			if !keep[name] {
				dropped++
			}
		}
	}
	if dropped == 0 {
		t.Fatalf("%s: the keep set drops no column of the path", q.Name)
	}

	for _, workers := range []int{1, 2, 3, 8} {
		s := env.SampledSearcher()
		for i, tg := range tgs {
			got, err := s.EvaluateWorkers(bgCtx, tg, req, workers)
			if err != nil {
				t.Fatal(err)
			}
			want := unprojectedEvaluate(t, tg, req, workers)
			if !sameBits(got, want) {
				t.Fatalf("%s candidate %d (η=%d, workers=%d): projected metrics %+v != unprojected %+v",
					q.Name, i, eta, workers, got, want)
			}
		}
	}
}

func TestProjectionInvisibleTPCH(t *testing.T) {
	env, err := experiments.NewEnv(experiments.EnvConfig{Dataset: "tpch", Scale: 2, Seed: 1, Rate: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range experiments.TPCHQueries() {
		projectionSweep(t, env, q, 0)
		projectionSweep(t, env, q, 60)
	}
}

func TestProjectionInvisibleTPCE(t *testing.T) {
	env, err := experiments.NewEnv(experiments.EnvConfig{Dataset: "tpce", Scale: 1, Seed: 1, Rate: 0.6, NumInstances: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range experiments.TPCEQueries() {
		projectionSweep(t, env, q, 0)
		projectionSweep(t, env, q, 80)
	}
}
