// Benchmarks regenerating every table and figure of the paper's evaluation
// (Sec 6) plus the ablations of DESIGN.md, at bench-friendly scales, and
// micro-benchmarks of the load-bearing primitives.
//
//	go test -bench=. -benchmem
//
// cmd/dancebench runs the same experiments at larger scales with full
// sweeps and renders the tables for EXPERIMENTS.md.
package dance_test

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"

	dance "github.com/dance-db/dance"
	"github.com/dance-db/dance/internal/core"
	"github.com/dance-db/dance/internal/experiments"
	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/infotheory"
	"github.com/dance-db/dance/internal/joingraph"
	"github.com/dance-db/dance/internal/marketplace"
	"github.com/dance-db/dance/internal/policy"
	"github.com/dance-db/dance/internal/pricing"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/sampling"
	"github.com/dance-db/dance/internal/search"
	"github.com/dance-db/dance/internal/tpch"
	"github.com/dance-db/dance/internal/workload"
)

// --- One bench per paper table/figure -------------------------------------

func BenchmarkTable5DatasetDescription(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5(context.Background(), experiments.Table5Options{Scale: 1, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSec61FDCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FDCounts(context.Background(), "tpch", experiments.Table5Options{Scale: 1, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4TimeVsInstances(b *testing.B) {
	opts := experiments.Fig4Options{Scale: 1, Seed: 1, Rate: 0.6, Ns: []int{5, 8}, Iterations: 30}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5aTPCEScalability(b *testing.B) {
	opts := experiments.Fig5Options{Scale: 1, Seed: 1, Rate: 0.6, Ns: []int{10, 29}, Iterations: 20}
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig5ab(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5cBudgetSweep(b *testing.B) {
	opts := experiments.Fig5Options{Scale: 1, Seed: 1, Rate: 0.6,
		Ratios: []float64{0.04, 0.12, 1.0}, Iterations: 20}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5c(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6CorrelationDifference(b *testing.B) {
	opts := experiments.Fig6Options{Scale: 1, Seed: 1, Rates: []float64{0.5, 1.0}, Iterations: 20}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7CorrelationVsBudget(b *testing.B) {
	opts := experiments.Fig7Options{Scale: 1, Seed: 1, Rate: 0.6,
		Ratios: []float64{0.5, 1.0}, Iterations: 20}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8Resampling(b *testing.B) {
	opts := experiments.Fig8Options{Scale: 1, Seed: 1, Rate: 0.7,
		ResampleRates: []float64{0.5}, Eta: 200, Iterations: 20}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6DanceVsDirect(b *testing.B) {
	opts := experiments.Table6Options{Scale: 1, Seed: 1, Rate: 0.6, BudgetRatio: 0.8, Iterations: 20}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table6(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (design choices called out in DESIGN.md) --------------------

func BenchmarkAblationSteiner(b *testing.B) {
	opts := experiments.AblationOptions{Scale: 1, Seed: 1, Rate: 0.6, Iterations: 15}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationSteiner(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMCMC(b *testing.B) {
	opts := experiments.AblationOptions{Scale: 1, Seed: 1, Rate: 0.6, Iterations: 15}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationMCMC(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPricing(b *testing.B) {
	opts := experiments.AblationOptions{Scale: 1, Seed: 1, Rate: 0.6, Iterations: 15}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationPricing(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEta(b *testing.B) {
	opts := experiments.AblationOptions{Scale: 1, Seed: 1, Rate: 0.6, Iterations: 15}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationEta(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the load-bearing primitives -----------------------

func benchDataset(b *testing.B) *tpch.Dataset {
	b.Helper()
	return tpch.Generate(tpch.Config{Scale: 4, Seed: 1, DirtyFraction: 0.3})
}

func BenchmarkEquiJoin(b *testing.B) {
	d := benchDataset(b)
	orders, customer := d.Table("orders"), d.Table("customer")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relation.EquiJoin(orders, customer, []string{"custkey"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullOuterJoinPairCounts counts the outer join's key pairs on
// dictionary codes of relations encoded once, outside the timer — the
// steady state of a join-graph build, where every sample is encoded once
// and its dictionaries' key orders are shared by all of its edges.
func BenchmarkFullOuterJoinPairCounts(b *testing.B) {
	d := benchDataset(b)
	orders, customer := relation.ToColumnar(d.Table("orders")), relation.ToColumnar(d.Table("customer"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := relation.OuterJoinCounts(orders, customer, []string{"custkey"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCorrelation(b *testing.B) {
	d := benchDataset(b)
	j, err := relation.EquiJoin(d.Table("orders"), d.Table("customer"), []string{"custkey"})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := infotheory.Correlation(j, []string{"totalprice"}, []string{"nationkey"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinInformativeness is JI from row tables: encoding the join
// columns, then counting on codes.
func BenchmarkJoinInformativeness(b *testing.B) {
	d := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dance.JoinInformativeness(d.Table("orders"), d.Table("customer"), []string{"custkey"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQualitySet times the quality kernel the serving path runs
// (search evaluation and Realize): Def 2.3 over the columnar join, encoded
// outside the timer.
func BenchmarkQualitySet(b *testing.B) {
	d := benchDataset(b)
	j, err := relation.EquiJoin(d.Table("orders"), d.Table("customer"), []string{"custkey"})
	if err != nil {
		b.Fatal(err)
	}
	c := relation.ToColumnar(j)
	fds := append(d.FDs["orders"], d.FDs["customer"]...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fd.QualitySetColumnar(c, fds, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFDDiscovery(b *testing.B) {
	d := benchDataset(b)
	c := relation.ToColumnar(d.Table("orders"))
	opts := fd.DiscoveryOptions{MaxError: 0.1, MaxLHS: 2, MaxRows: 300}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fd.Discover(c, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorrelatedSample times correlated sampling (Sec 3.1) of lineitem
// on orderkey at rate 0.5, on its encoding built outside the timer.
func BenchmarkCorrelatedSample(b *testing.B) {
	d := benchDataset(b)
	lineitem := relation.ToColumnar(d.Table("lineitem"))
	h := sampling.NewHasher(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sampling.CorrelatedSampleColumnar(lineitem, []string{"orderkey"}, 0.5, h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinGraphBuild(b *testing.B) {
	d := benchDataset(b)
	model := pricing.Cached(pricing.DefaultEntropyModel())
	quoter := benchQuoter{model: model, d: d}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh instances every build, as over fresh samples: Build encodes
		// each one.
		var instances []*joingraph.Instance
		for _, t := range d.Tables {
			instances = append(instances, &joingraph.Instance{
				Name: t.Name, Columnar: relation.ToColumnar(t), FullRows: t.NumRows(), FDs: d.FDs[t.Name],
			})
		}
		if _, err := joingraph.Build(instances, joingraph.Config{MaxJoinAttrs: 2, Quoter: quoter}); err != nil {
			b.Fatal(err)
		}
	}
}

type benchQuoter struct {
	model pricing.Model
	d     *tpch.Dataset
}

func (q benchQuoter) QuoteProjection(_ context.Context, name string, attrs []string) (float64, error) {
	return q.model.PriceProjection(q.d.Table(name), attrs)
}

func BenchmarkHeuristicSearch(b *testing.B) {
	env, err := experiments.NewEnv(experiments.EnvConfig{Dataset: "tpch", Scale: 2, Seed: 1, Rate: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	q := experiments.TPCHQueries()[1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := env.Request(q, int64(i))
		req.Iterations = 40
		if _, err := search.NewSearcher(env.Sampled).Heuristic(bg, req); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTPCEHeuristic runs the two-step search over the TPC-E join graph
// (the paper's largest workload, Q3's length-8 spine) at a fixed worker
// count. A fresh Searcher per iteration keeps the evaluator cache cold, so
// serial and parallel runs do the same work; the found target graph is
// identical for every worker count, only wall-clock changes.
func benchTPCEHeuristic(b *testing.B, workers int) {
	env, err := experiments.NewEnv(experiments.EnvConfig{Dataset: "tpce", Scale: 1, Seed: 1, Rate: 0.6, NumInstances: 10})
	if err != nil {
		b.Fatal(err)
	}
	q := experiments.TPCEQueries()[2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := env.Request(q, 7)
		req.Iterations = 40
		req.MaxIGraphs = 8 // widen the Step 1 pool: one chain per candidate
		req.Workers = workers
		if _, err := search.NewSearcher(env.Sampled).Heuristic(bg, req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeuristicTPCESerial(b *testing.B)   { benchTPCEHeuristic(b, 1) }
func BenchmarkHeuristicTPCEParallel(b *testing.B) { benchTPCEHeuristic(b, 0) }

func BenchmarkEndToEndAcquisition(b *testing.B) {
	tables, fds := dance.GenerateTPCH(2, 1, -1)
	market := dance.NewMarketplace(nil)
	for _, t := range tables {
		market.Register(t, fds[t.Name])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mw := dance.New(market, dance.Config{SampleRate: 0.5, SampleSeed: uint64(i)})
		plan, err := mw.Acquire(bg, dance.Request{
			SourceAttrs: []string{"totalprice"},
			TargetAttrs: []string{"nname"},
			Iterations:  30,
			Seed:        int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mw.Execute(bg, plan); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Execute: realizing a purchase on full data ---------------------------

// benchExecuteRecord times ExecuteRecord alone: the plans are searched once,
// outside the timer, and every iteration buys and joins one of them (cycling)
// and measures realized correlation and quality on the purchase.
func benchExecuteRecord(b *testing.B, mw *core.Dance, reqs []search.Request) {
	b.Helper()
	var recs []*core.PlanRecord
	for _, req := range reqs {
		plan, err := mw.Acquire(bg, req)
		if err != nil {
			b.Fatal(err)
		}
		rec, err := plan.Record()
		if err != nil {
			b.Fatal(err)
		}
		recs = append(recs, rec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mw.ExecuteRecord(bg, recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteRecordChain50k is the bulk shape: a 50k-row owned base
// joined through a planted chain of bought listings.
func BenchmarkExecuteRecordChain50k(b *testing.B) {
	spec, err := workload.ParseSpec("chain:3,rows=50000")
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.Generate(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	mw := core.New(w.MarketplaceWithoutBase(), core.Config{SampleRate: 0.2, SampleSeed: 78, Workers: 1})
	mw.AddSource(w.Base(), w.FDs[w.Base().Name])
	benchExecuteRecord(b, mw, []search.Request{{
		SourceAttrs:  []string{w.Truth.X},
		TargetAttrs:  []string{w.Truth.Y},
		Budget:       w.Truth.PlanCostOwned * (1 + experiments.BudgetSlack),
		Iterations:   60,
		Eta:          2000,
		ResampleRate: 0.2,
		Seed:         1,
		Workers:      1,
	}})
}

// BenchmarkExecuteRecordTPCH is the small-join shape: TPC-H Q1–Q3 plans over
// a scale-15 marketplace, where each execute joins a few thousand rows and
// the fixed per-execute costs show.
func BenchmarkExecuteRecordTPCH(b *testing.B) {
	tables, fds := dance.GenerateTPCH(15, 1, -1)
	market := marketplace.NewInMemory(pricing.Cached(pricing.DefaultEntropyModel()))
	for _, t := range tables {
		market.Register(t, fds[t.Name])
	}
	mw := core.New(market, core.Config{SampleRate: 0.9, SampleSeed: 1, Workers: 1})
	var reqs []search.Request
	for i, q := range experiments.TPCHQueries() {
		reqs = append(reqs, search.Request{
			SourceAttrs:  q.SourceAttrs,
			TargetAttrs:  q.TargetAttrs,
			Iterations:   80,
			Eta:          150,
			ResampleRate: 0.3,
			Seed:         int64(i + 1),
			Workers:      1,
		})
	}
	benchExecuteRecord(b, mw, reqs)
}

// BenchmarkEvaluateTPCHResample times one cold MCMC evaluation — the
// resample-search workload's dominant cost — of 5–6-hop TPC-H Q3 target
// graphs (the search's pick and its one-variant-swap neighbours) at η=150,
// ρ=0.3 over scale-15 samples. Every iteration uses a fresh request seed, so
// the hasher (and with it the evaluation and join-prefix keys) is new and
// the whole re-sampled join is recomputed; instance encodings, projected
// views and join indexes stay warm, as they do across a danced session's
// acquires.
func BenchmarkEvaluateTPCHResample(b *testing.B) {
	env, err := experiments.NewEnv(experiments.EnvConfig{Dataset: "tpch", Scale: 15, Seed: 1, Rate: 0.9, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	q := experiments.TPCHQueries()[2]
	req := env.Request(q, 1)
	req.Iterations = 20
	req.Eta = 150
	req.ResampleRate = 0.3
	s := env.SampledSearcher()
	res, err := s.Heuristic(bg, req)
	if err != nil {
		b.Fatal(err)
	}
	var tgs []*joingraph.TargetGraph
	for _, tg := range append([]*joingraph.TargetGraph{res.TG}, variantSwaps(env.Sampled, res.TG)...) {
		if n := len(tg.Vertices); n >= 5 && n <= 6 {
			tgs = append(tgs, tg)
		}
	}
	if len(tgs) == 0 {
		b.Fatalf("no 5–6-hop target graph for %s (found %d hops)", q.Name, len(res.TG.Vertices))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Seed = int64(i) + 2
		if _, err := s.Evaluate(bg, tgs[i%len(tgs)], req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeuristicTPCHResample times one whole search of the
// resample-search workload: the Heuristic over scale-15 TPC-H samples at
// η=150, ρ=0.3 and Workers=1, cycling through Q1–Q3. Every iteration uses a
// fresh request seed, so its evaluations and join prefixes are cold, while
// the Searcher's instance encodings, projected views and join indexes stay
// warm. Unlike BenchmarkEvaluateTPCHResample, each evaluation runs with the
// search's own scratch, warm after the first few proposals.
func BenchmarkHeuristicTPCHResample(b *testing.B) {
	env, err := experiments.NewEnv(experiments.EnvConfig{Dataset: "tpch", Scale: 15, Seed: 1, Rate: 0.9, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	queries := experiments.TPCHQueries()[:3]
	s := env.SampledSearcher()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := env.Request(queries[i%len(queries)], int64(i)+2)
		req.Iterations = 80
		req.Eta = 150
		req.ResampleRate = 0.3
		req.Workers = 1
		if _, err := s.Heuristic(bg, req); err != nil {
			b.Fatal(err)
		}
	}
}

// variantSwaps returns every single-edge variant swap of tg: the moves the
// MCMC proposes from it.
func variantSwaps(g *joingraph.Graph, tg *joingraph.TargetGraph) []*joingraph.TargetGraph {
	var out []*joingraph.TargetGraph
	for ei, e := range tg.Edges {
		for v := range g.EdgeBetween(e.I, e.J).Variants {
			if v != e.Variant {
				cand := tg.Clone()
				cand.Edges[ei].Variant = v
				out = append(out, cand)
			}
		}
	}
	return out
}

// --- Incremental escalation vs. the seed-era full rebuild ------------------

// benchEscalationServer hosts a TPC-H marketplace over a real HTTP listener:
// the escalation scenario is I/O-shaped (samples cross the wire as CSV), so
// the delta path's smaller transfers and merge-instead-of-reencode are
// measured where they matter.
func benchEscalationServer(b *testing.B) *httptest.Server {
	b.Helper()
	tables, fds := dance.GenerateTPCH(2, 1, -1)
	market := dance.NewMarketplace(nil)
	for _, t := range tables {
		market.Register(t, fds[t.Name])
	}
	srv := httptest.NewServer(dance.Handler(market))
	b.Cleanup(srv.Close)
	return srv
}

var escalationLadder = []float64{0.1, 0.2, 0.4, 0.8, 1}

// BenchmarkEscalationIncremental is a long-lived session escalating through
// the rate ladder: one middleware, delta purchases, copy-on-write merges,
// version-keyed caches.
func BenchmarkEscalationIncremental(b *testing.B) {
	srv := benchEscalationServer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := core.New(marketplace.NewClient(srv.URL), core.Config{
			SampleRate: escalationLadder[0], SampleSeed: 1, RateGrowth: 2,
		})
		if err := d.Offline(bg); err != nil {
			b.Fatal(err)
		}
		for range escalationLadder[1:] {
			if _, err := d.Escalate(bg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEscalationFullRebuild is the seed-era baseline: every rate of
// the same ladder re-buys complete samples and rebuilds the offline state
// from scratch (a fresh middleware per round, exactly what the old
// Dance.rebuild did on every escalation).
func BenchmarkEscalationFullRebuild(b *testing.B) {
	srv := benchEscalationServer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rate := range escalationLadder {
			d := core.New(marketplace.NewClient(srv.URL), core.Config{
				SampleRate: rate, SampleSeed: 1,
			})
			if err := d.Offline(bg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFigXTPCHBudgetTime(b *testing.B) {
	opts := experiments.Fig5Options{Scale: 1, Seed: 1, Rate: 0.6,
		Ratios: []float64{0.5, 1.0}, Iterations: 20}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FigTPCHBudgetTime(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Synthetic-workload acquisitions (the scenario generator's headline) ---

// benchWorkload runs full acquisitions (offline sampling, search, purchase)
// against one pre-generated synthetic marketplace. Generation runs outside
// the timer; a larger-than-default spec keeps the join work meaningful.
func benchWorkload(b *testing.B, specStr string) {
	b.Helper()
	spec, err := workload.ParseSpec(specStr)
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.Generate(spec, 17)
	if err != nil {
		b.Fatal(err)
	}
	market := w.Marketplace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mw := core.New(market, core.Config{SampleRate: 0.5, SampleSeed: uint64(i) + 1})
		plan, err := mw.Acquire(bg, search.Request{
			TargetAttrs: []string{w.Truth.X, w.Truth.Y},
			Iterations:  30,
			Seed:        int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mw.Execute(bg, plan); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadChain(b *testing.B) {
	benchWorkload(b, "chain:4,rows=2000,keys=64,decoys=4,attrs=2")
}

func BenchmarkWorkloadStar(b *testing.B) {
	benchWorkload(b, "star:4,rows=2000,keys=64,decoys=2,attrs=2,kinds=mixed")
}

// --- Acquisition policies ---------------------------------------------------

// BenchmarkPolicyTBYB times one try-before-you-buy acquisition per op on the
// owned-base star:4 marketplace (2000 base rows, 2000 keys, fanout 2), with
// the load harness's request shape: the shopper owns the base listing, the
// budget is the cheapest correct plan's cost, 20 MCMC iterations and a
// fresh search seed per op. Every op buys pilot samples, escalates the
// survivors and rebuilds a join graph per round over the fresh samples; $/op
// is the sample spend each acquisition bills.
func BenchmarkPolicyTBYB(b *testing.B) { benchPolicy(b, "try-before-you-buy") }

// BenchmarkPolicyDance and BenchmarkPolicyGreedy time the two policies that
// search the middleware's own samples on the same set-up. Those samples
// (and any escalation) are bought once, by the first op, so $/op is that
// spend amortized over b.N.
func BenchmarkPolicyDance(b *testing.B)  { benchPolicy(b, "dance") }
func BenchmarkPolicyGreedy(b *testing.B) { benchPolicy(b, "greedy") }

func benchPolicy(b *testing.B, policy string) {
	spec, err := workload.ParseSpec("star:4,rows=2000,keys=2000,fanout=2")
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.Generate(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	mw := core.New(w.MarketplaceWithoutBase(), core.Config{SampleRate: 0.3, SampleSeed: 78, Workers: 1})
	mw.AddSource(w.Base(), w.FDs[w.Base().Name])
	req := search.Request{
		SourceAttrs:  []string{w.Truth.X},
		TargetAttrs:  []string{w.Truth.Y},
		Budget:       w.Truth.PlanCostOwned * (1 + experiments.BudgetSlack),
		Iterations:   20,
		ResampleRate: 0.2,
		Workers:      1,
		Policy:       policy,
	}
	before := mw.SampleCost()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Seed = int64(i)
		if _, err := mw.Acquire(bg, req); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric((mw.SampleCost()-before)/float64(b.N), "$/op")
}

// --- Marketplace wire -------------------------------------------------------

// BenchmarkMarketplaceLoopback times the marketplace calls of one
// try-before-you-buy op on the pilot-durable set-up — the owned-base star:4
// marketplace (2000 base rows, 2000 keys, fanout 2, seed 1) served by marketd
// on a loopback httptest server — through the HTTP Client: the catalog, a
// rate-0.05 pilot Sample and the FDs of each of the 7 listings, the 4
// SampleDelta top-ups (0.05 → 0.15 → 0.45) of the two escalated listings,
// and the 2 ExecuteProjection purchases of the plan. Pilot samples reuse the
// middleware's sample seed, as the policy does, so from the second op on the
// seller answers from its index. rows/op counts the table rows delivered.
func BenchmarkMarketplaceLoopback(b *testing.B) {
	spec, err := workload.ParseSpec("star:4,rows=2000,keys=2000,fanout=2")
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.Generate(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(marketplace.Handler(w.MarketplaceWithoutBase()))
	defer srv.Close()
	c := marketplace.NewClient(srv.URL)
	const seed = 78 // perfbench's pilot-durable sample seed
	escalated := []string{"hub", "spoke4"}
	deltas := [][2]float64{{0.05, 0.15}, {0.15, 0.45}}
	purchases := []pricing.Query{
		{Instance: "hub", Attrs: []string{"bk4", "k0"}},
		{Instance: "spoke4", Attrs: []string{"bk4", "y"}},
	}
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		catalog, err := c.Catalog(bg)
		if err != nil {
			b.Fatal(err)
		}
		on := map[string][]string{}
		for _, info := range catalog {
			on[info.Name] = []string{policy.PrimaryJoinAttr(info, catalog)}
			t, _, err := c.Sample(bg, info.Name, on[info.Name], 0.05, seed)
			if err != nil {
				b.Fatal(err)
			}
			rows += t.NumRows()
			if _, err := c.DatasetFDs(bg, info.Name); err != nil {
				b.Fatal(err)
			}
		}
		for _, d := range deltas {
			for _, name := range escalated {
				t, _, err := c.SampleDelta(bg, name, on[name], d[0], d[1], seed)
				if err != nil {
					b.Fatal(err)
				}
				rows += t.NumRows()
			}
		}
		for _, q := range purchases {
			t, _, err := c.ExecuteProjection(bg, q)
			if err != nil {
				b.Fatal(err)
			}
			rows += t.NumRows()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
}

// --- Million-row tier -------------------------------------------------------

// workload1MSpec is the million-row chain: a 1,000,000-row base listing
// joined through two bridges to the terminal, plus decoys. Generated once
// and shared across the 1M benchmarks (generation alone joins the planted
// path at full scale to measure ρ).
const workload1MSpec = "chain:3,rows=1000000,keys=512,decoys=2,attrs=1"

var workload1M struct {
	once sync.Once
	w    *workload.Workload
	err  error
}

func workload1MShared(b *testing.B) *workload.Workload {
	b.Helper()
	workload1M.once.Do(func() {
		spec, err := workload.ParseSpec(workload1MSpec)
		if err != nil {
			workload1M.err = err
			return
		}
		workload1M.w, workload1M.err = workload.Generate(spec, 17)
	})
	if workload1M.err != nil {
		b.Fatal(workload1M.err)
	}
	return workload1M.w
}

type listings1M []*relation.Table

func (l listings1M) table(name string) *relation.Table {
	for _, t := range l {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// benchWorkload1M runs full acquisitions — offline sampling, segmented
// search, plan — against the shared million-row marketplace at a fixed
// worker count. Sampling at 0.2 keeps every join intermediate under the
// prefix cache's per-entry row budget, so the search exercises the cache
// instead of bypassing it. The found plan is bit-identical for every worker
// count (pinned by TestMillionRowDeterministicAcrossWorkers); the
// Serial/Parallel pair feeds CI's ≥2× ratio gate on multicore runners.
func benchWorkload1M(b *testing.B, workers int) {
	w := workload1MShared(b)
	market := w.Marketplace()
	// One untimed warmup: the workload's pricing model caches projection
	// quotes, and whichever worker count runs first would otherwise pay the
	// entropy pricing of every candidate plan for both.
	warm := core.New(market, core.Config{SampleRate: 0.2, SampleSeed: 1})
	if _, err := warm.Acquire(bg, search.Request{
		TargetAttrs: []string{w.Truth.X, w.Truth.Y}, Iterations: 30, Seed: 7,
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mw := core.New(market, core.Config{SampleRate: 0.2, SampleSeed: 1, Workers: workers})
		plan, err := mw.Acquire(bg, search.Request{
			TargetAttrs: []string{w.Truth.X, w.Truth.Y},
			Iterations:  30,
			Seed:        7,
			Workers:     workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(plan.Queries) == 0 {
			b.Fatal("empty plan")
		}
	}
}

func BenchmarkWorkloadChain1MSerial(b *testing.B)   { benchWorkload1M(b, 1) }
func BenchmarkWorkloadChain1MParallel(b *testing.B) { benchWorkload1M(b, 0) }

// join1MInputs returns the million-row base listing, the first bridge, and
// their shared key, columnar-encoded (encoding runs outside the timer).
func join1MInputs(b *testing.B) (base, bridge *relation.Columnar, on []string) {
	w := workload1MShared(b)
	l := listings1M(w.Listings)
	bt := l.table(w.Truth.Path[0])
	br := l.table(w.Truth.Path[1])
	on = relation.SharedAttrs(bt.Schema, br.Schema)
	return relation.ToColumnar(bt), relation.ToColumnar(br), on
}

func benchEquiJoinColumnar1M(b *testing.B, workers int) {
	base, bridge, on := join1MInputs(b)
	idx, err := bridge.BuildJoinIndex(1, on...)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relation.EquiJoinColumnar(base, bridge, on, idx, relation.JoinOptions{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEquiJoinColumnar1MSerial(b *testing.B)   { benchEquiJoinColumnar1M(b, 1) }
func BenchmarkEquiJoinColumnar1MParallel(b *testing.B) { benchEquiJoinColumnar1M(b, 0) }

func BenchmarkCorrelationColumnar1M(b *testing.B) {
	w := workload1MShared(b)
	l := listings1M(w.Listings)
	acc := relation.ToColumnar(l.table(w.Truth.Path[0]))
	for i := 1; i < len(w.Truth.Path); i++ {
		cur := l.table(w.Truth.Path[i])
		on := relation.SharedAttrs(acc.Schema(), cur.Schema)
		j, err := relation.EquiJoinColumnar(acc, relation.ToColumnar(cur), on, nil, relation.JoinOptions{})
		if err != nil {
			b.Fatal(err)
		}
		acc = j
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := infotheory.CorrelationColumnar(acc, []string{w.Truth.X}, []string{w.Truth.Y}, nil); err != nil {
			b.Fatal(err)
		}
	}
}
