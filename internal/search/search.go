// Package search implements DANCE's online phase (Sec 5): the two-step
// heuristic — Step 1 finds minimal-weight I-layer graphs via landmarks,
// Step 2 runs the MCMC of Algorithm 1 over AS-edge variants — plus the LP
// and GP brute-force optimal baselines used by the evaluation.
package search

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/graphalg"
	"github.com/dance-db/dance/internal/infotheory"
	"github.com/dance-db/dance/internal/joingraph"
	"github.com/dance-db/dance/internal/memo"
	"github.com/dance-db/dance/internal/parallel"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/safekey"
	"github.com/dance-db/dance/internal/sampling"
)

// ErrInfeasible marks failures caused by the acquisition request itself —
// its constraints admit no plan, or it names attributes nobody sells —
// as opposed to marketplace or infrastructure errors. Wrapped (errors.Is)
// by every search entry point, and preserved through core.Dance's
// escalation wrapper, so service layers can map it to a client-side
// status.
var ErrInfeasible = errors.New("request infeasible")

// Request is one data-acquisition request (Sec 2.5).
type Request struct {
	// SourceAttrs is AS. If empty, the request degenerates to finding the
	// best correlation within AT: the first target attribute plays X and
	// the rest play Y (the paper's "acquisition without S and AS").
	SourceAttrs []string
	// TargetAttrs is AT.
	TargetAttrs []string
	// Budget is B; ≤ 0 means unbounded.
	Budget float64
	// Alpha bounds total join informativeness w(TG) ≤ α; ≤ 0 = unbounded.
	Alpha float64
	// Beta lower-bounds quality Q(TG) ≥ β.
	Beta float64
	// Iterations is ℓ, the MCMC iteration count (default 100).
	Iterations int
	// Eta is the re-sampling threshold η for intermediate joins
	// (0 disables re-sampling).
	Eta int
	// ResampleRate is ρ (default 0.5 when Eta > 0).
	ResampleRate float64
	// Landmarks is the landmark count for Step 1 (default 6).
	Landmarks int
	// MaxCovers caps enumerated source/target covers (default 8).
	MaxCovers int
	// MaxIGraphs caps the Step 1 candidates handed to Step 2 (default 4).
	MaxIGraphs int
	// Seed drives the MCMC and landmark selection.
	Seed int64
	// Workers bounds Step 2's concurrency. Work is split *inside* each
	// chain: a candidate's ℓ iterations partition into fixed segments (a
	// function of ℓ alone, never of Workers), each restarting from the
	// candidate's initial target graph with an RNG stream derived from
	// (Seed, candidate, segment) — so eight workers help even when Step 1
	// yields two candidates. 0 or negative means one worker per CPU; 1
	// forces the serial engine. The best result is bit-identical for every
	// worker count: segmentation and RNG streams are worker-independent and
	// the reduction scans (candidate, segment) results in input order.
	Workers int
	// Greedy switches Algorithm 1's Metropolis acceptance
	// min(1, CORR'/CORR) to strict hill-climbing (accept only
	// improvements). Used by the acceptance-rule ablation.
	Greedy bool
	// Policy names the acquisition policy that plans the request ("" =
	// the default "dance" search). The search engine itself ignores it;
	// the core middleware resolves it against the policy registry and
	// normalizes it to the policy that produced the plan.
	Policy string
	// PolicyParams are policy-specific tunables (see GET /v1/policies for
	// each policy's schema); ignored by the search engine.
	PolicyParams map[string]float64
}

func (r Request) withDefaults() Request {
	if r.Iterations <= 0 {
		r.Iterations = 100
	}
	if r.Landmarks <= 0 {
		r.Landmarks = 6
	}
	if r.MaxCovers <= 0 {
		r.MaxCovers = 8
	}
	if r.MaxIGraphs <= 0 {
		r.MaxIGraphs = 4
	}
	if r.Eta > 0 && r.ResampleRate <= 0 {
		r.ResampleRate = 0.5
	}
	return r
}

// corrAttrs resolves the X and Y attribute sets for CORR (supporting the
// source-less request form).
func (r Request) corrAttrs() (x, y []string, err error) {
	if len(r.TargetAttrs) == 0 {
		return nil, nil, fmt.Errorf("search: no target attributes")
	}
	if len(r.SourceAttrs) > 0 {
		return r.SourceAttrs, r.TargetAttrs, nil
	}
	if len(r.TargetAttrs) < 2 {
		return nil, nil, fmt.Errorf("search: source-less request needs ≥ 2 target attributes")
	}
	return r.TargetAttrs[:1], r.TargetAttrs[1:], nil
}

// Metrics are the four quantities of the optimization problem (Eq 9).
type Metrics struct {
	Correlation float64
	Quality     float64
	Weight      float64
	Price       float64
}

// Feasible checks the constraints of Eq 9 (budget/α unbounded when ≤ 0).
func (m Metrics) Feasible(r Request) bool {
	if r.Budget > 0 && m.Price > r.Budget {
		return false
	}
	if r.Alpha > 0 && m.Weight > r.Alpha {
		return false
	}
	if m.Quality < r.Beta {
		return false
	}
	return true
}

// Result is a search outcome.
type Result struct {
	TG  *joingraph.TargetGraph
	Est Metrics
	// Evals counts full metric evaluations (the dominant cost, Sec 5.3).
	Evals int
	// Considered counts candidate target graphs examined.
	Considered int
}

// Searcher runs searches over one join graph. It is safe for concurrent
// use: every cache is a concurrency-safe memo, and every search derives
// chain-local RNGs instead of mutating shared state.
//
// The caches may be shared across Searchers (NewSearcherWithCaches): every
// cache key incorporates the per-instance (name, version) identity, so a
// graph rebuilt from an incrementally merged sample store invalidates only
// the entries of datasets whose offline state actually changed.
type Searcher struct {
	G *joingraph.Graph

	caches *Caches
	// instKey is each instance's versioned cache identity, precomputed.
	instKey []string

	keeps *memo.Memo[*keepSet] // by Request.corrKey
}

// NewSearcher wraps a join graph with a private cache set (the classic
// one-searcher-per-graph mode).
func NewSearcher(g *joingraph.Graph) *Searcher {
	return NewSearcherWithCaches(g, NewCaches())
}

// NewSearcherWithCaches wraps a join graph around a shared cache set. The
// middleware passes one Caches across sample-rate escalations so that
// evaluation state derived from unchanged datasets survives the rebuild.
func NewSearcherWithCaches(g *joingraph.Graph, caches *Caches) *Searcher {
	s := &Searcher{G: g, caches: caches, keeps: memo.New[*keepSet](1, maxKeepSets)}
	s.instKey = make([]string, len(g.Instances))
	for i, inst := range g.Instances {
		s.instKey[i] = inst.CacheKey()
	}
	return s
}

// keepSet is the column projection evaluateUncached joins under: X ∪ Y,
// every attribute of every instance's FDs, every attribute two instances
// share (the union of the I-edges' Shared sets), and every name the join's
// right-side renaming could produce (joinedSchema's base_r / base_rN). A
// dropped column therefore lives in exactly one instance, is never joined,
// grouped or measured, and can neither be renamed nor push a kept column to
// a different rename suffix — so the projected join is the unprojected one
// restricted to the kept columns, names and all, and every metric is
// bit-identical. The set is request-wide (a function of the X/Y split and
// the graph), not per target graph, so MCMC neighbours keep sharing join
// prefixes.
type keepSet struct {
	names map[string]bool
	// tag is the injective rendering of the sorted names; it is part of the
	// projected-view and join-prefix keys.
	tag string
}

// maxKeepSets bounds a Searcher's memo of keep sets, since the X/Y splits
// it is keyed by are shopper-chosen.
const maxKeepSets = 64

// keepFor returns req's keep set, computed once per X/Y split.
func (s *Searcher) keepFor(req Request, x, y []string) *keepSet {
	key := req.corrKey()
	if k, ok := s.keeps.Get(key); ok {
		return k
	}
	names := map[string]bool{}
	for _, a := range x {
		names[a] = true
	}
	for _, a := range y {
		names[a] = true
	}
	for _, inst := range s.G.Instances {
		for _, f := range inst.FDs {
			for _, a := range f.Attrs() {
				names[a] = true
			}
		}
		for _, col := range inst.Columnar.Schema().Names() {
			if renameShaped(col) {
				names[col] = true
			}
		}
	}
	for _, e := range s.G.Edges {
		for _, a := range e.Shared {
			names[a] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for a := range names {
		sorted = append(sorted, a)
	}
	sort.Strings(sorted)
	k := &keepSet{names: names, tag: safekey.Join(sorted...)}
	s.keeps.Put(key, k)
	return k
}

// renameShaped reports whether name has the shape of a name joinedSchema
// gives a clashing right-side column: base + "_r", optionally followed by
// a decimal suffix.
func renameShaped(name string) bool {
	i := strings.LastIndex(name, "_r")
	if i < 0 {
		return false
	}
	for _, ch := range name[i+2:] {
		if ch < '0' || ch > '9' {
			return false
		}
	}
	return true
}

// viewOf returns instance v's columnar encoding projected to keep, shared
// per (versioned instance, keep set).
func (s *Searcher) viewOf(v int, keep *keepSet) *relation.Columnar {
	key := safekey.Join(s.instKey[v], keep.tag)
	if e, ok := s.caches.views.Get(key); ok {
		return e.v
	}
	c := s.G.Instances[v].Columnar.Project(keep.names)
	s.caches.views.Put(key, owned[*relation.Columnar]{inst: s.instKey[v], v: c})
	return c
}

// joinIndexOf returns the shared build-side join index of instance v on the
// given attributes, building it on first use (with up to workers goroutines
// — indexes are bit-identical for every worker count). The build — O(sample
// size) — runs outside the memo's lock so concurrent workers warming up
// different (instance, attrs) pairs don't serialize; a racing duplicate
// build is harmless (indexes are immutable and equal).
func (s *Searcher) joinIndexOf(v int, on []string, workers int) (*relation.JoinIndex, error) {
	// Instance and attribute names are seller text: length-prefixed parts
	// keep on = ["a","b"] apart from on = ["a\x00b"].
	key := safekey.Join(append([]string{s.instKey[v]}, on...)...)
	if e, ok := s.caches.joinIdx.Get(key); ok {
		return e.v, nil
	}
	idx, err := s.G.Instances[v].Columnar.BuildJoinIndexWorkers(workers, on...)
	if err != nil {
		return nil, err
	}
	s.caches.joinIdx.Put(key, owned[*relation.JoinIndex]{inst: s.instKey[v], v: idx})
	return idx, nil
}

// fingerprint identifies a target graph up to metrics equivalence.
func fingerprint(tg *joingraph.TargetGraph) string {
	var b strings.Builder
	for _, e := range tg.Edges {
		b.WriteString(strconv.Itoa(e.I))
		b.WriteByte('-')
		b.WriteString(strconv.Itoa(e.J))
		b.WriteByte('#')
		b.WriteString(strconv.Itoa(e.Variant))
		b.WriteByte(';')
	}
	for _, v := range tg.Vertices {
		b.WriteString(strconv.Itoa(v))
		b.WriteByte(',')
	}
	keys := make([]string, 0, len(tg.Assign))
	for k := range tg.Assign {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.WriteString(strconv.Quote(k)) // attribute names are free text
		b.WriteByte('=')
		b.WriteString(strconv.Itoa(tg.Assign[k]))
		b.WriteByte(';')
	}
	return b.String()
}

// samplingOptions are the re-sampled-join options this request implies.
// Their CacheKey is part of the evaluator cache identity.
func (r Request) samplingOptions() sampling.PathJoinOptions {
	return sampling.PathJoinOptions{
		Eta:          r.Eta,
		ResampleRate: r.ResampleRate,
		Hasher:       sampling.NewHasher(uint64(r.Seed) + 1),
	}
}

// corrKey identifies the request's X/Y attribute split for memoization:
// CORR is asymmetric (Def 2.5 treats X and Y differently), so requests
// over the same attribute set partitioned differently must not share
// cached metrics. Attribute names are seller text, so each side is
// length-prefixed: target ["b", "c"] and target ["b\x00c"] differ.
func (r Request) corrKey() string {
	return safekey.Join(safekey.Join(r.SourceAttrs...), safekey.Join(r.TargetAttrs...))
}

// evalKey extends the target-graph fingerprint with the versioned identity
// of every participating instance: metrics are a function of the samples,
// so a cache shared across rebuilds must distinguish dataset versions —
// and, by keying per instance, entries for target graphs touching only
// unchanged datasets keep hitting after an escalation. Instance keys carry
// seller-controlled names, so the parts are length-prefixed (safekey.Join):
// instance keys "p@1;q@2", "r@3" and "p@1", "q@2;r@3" must not render one
// key.
func (s *Searcher) evalKey(tg *joingraph.TargetGraph, req Request) string {
	parts := make([]string, 0, len(tg.Vertices)+3)
	parts = append(parts, fingerprint(tg))
	for _, v := range tg.Vertices {
		parts = append(parts, s.instKey[v])
	}
	parts = append(parts, req.corrKey(), req.samplingOptions().CacheKey())
	return safekey.Join(parts...)
}

// Evaluate computes the estimated metrics of tg on the held samples,
// re-sampling intermediate joins per the request. Results are memoized
// under the (target-graph fingerprint, instance versions, X/Y split,
// sampling options) tuple, so one cache set can serve requests with
// different attribute splits, Eta/ResampleRate/Seed, or offline state
// versions without cross-contamination, from any number of goroutines.
//
// Evaluate is a search of one target graph: its scratch memory lives for
// the call.
func (s *Searcher) Evaluate(ctx context.Context, tg *joingraph.TargetGraph, req Request) (Metrics, error) {
	return s.evaluate(ctx, tg, req, 1, s.newScratch())
}

// evaluate is Evaluate with a worker bound for the columnar join/grouping
// kernels of a cache miss, and the scratch memory of the calling goroutine
// (nil: allocate). Metrics are bit-identical for every worker count (the
// kernels pin that) and with or without scratch, so cached entries are
// shared freely across calls.
func (s *Searcher) evaluate(ctx context.Context, tg *joingraph.TargetGraph, req Request, workers int, scr *relation.Scratch) (Metrics, error) {
	key := s.evalKey(tg, req)
	if m, ok := s.caches.eval.Get(key); ok {
		return m, nil
	}
	m, err := s.evaluateUncached(ctx, tg, req, workers, scr)
	if err != nil {
		return Metrics{}, err
	}
	s.caches.eval.Put(key, m)
	return m, nil
}

// evaluateUncached runs entirely on the columnar fast path: instance
// samples are dictionary-encoded once per Searcher, the join runs over
// views projected to the request's keep set (so it gathers only the columns
// the metrics or later hops read), build-side join indexes are shared per
// (instance, join-attrs), the join never materializes rows, and common path
// prefixes are reused through the prefix cache. With η > 0 the terminal
// join lives in scr and goes back to it once measured. The metrics are
// bit-identical to those of the row-store pipeline this path replaced,
// frozen in testdata/evaluate_golden.json (columnar_equiv_test.go).
func (s *Searcher) evaluateUncached(ctx context.Context, tg *joingraph.TargetGraph, req Request, workers int, scr *relation.Scratch) (Metrics, error) {
	x, y, err := req.corrAttrs()
	if err != nil {
		return Metrics{}, err
	}
	hops, err := tg.JoinPlan()
	if err != nil {
		return Metrics{}, err
	}
	keep := s.keepFor(req, x, y)
	steps := make([]sampling.ColumnarStep, len(hops))
	for i, hp := range hops {
		st := sampling.ColumnarStep{C: s.viewOf(hp.Vertex, keep), On: hp.On, ID: s.instKey[hp.Vertex]}
		if i > 0 {
			if st.Index, err = s.joinIndexOf(hp.Vertex, hp.On, workers); err != nil {
				return Metrics{}, err
			}
		}
		steps[i] = st
	}
	opts := req.samplingOptions()
	opts.Workers = workers
	opts.ProjectionTag = keep.tag
	fds := tg.FDs()
	j, _, err := sampling.ResampledJoinPathScratch(steps, opts, s.caches.prefixes, scr)
	if err != nil {
		return Metrics{}, err
	}
	defer scr.Release(j)
	m := Metrics{Weight: tg.Weight()}
	m.Price, err = tg.Price(ctx)
	if err != nil {
		return Metrics{}, err
	}
	if err := m.measure(j, x, y, fds, scr); err != nil {
		return Metrics{}, err
	}
	return m, nil
}

// measure sets m's correlation and quality on the joined relation j, with
// the groupings they count in scr (nil: allocated). An empty join carries
// no correlation evidence and its quality is vacuous: both stay zero.
func (m *Metrics) measure(j *relation.Columnar, x, y []string, fds []fd.FD, scr *relation.Scratch) error {
	if j.NumRows() == 0 {
		m.Correlation, m.Quality = 0, 0
		return nil
	}
	var err error
	if m.Correlation, err = infotheory.CorrelationScratch(j, x, y, scr); err != nil {
		return err
	}
	m.Quality, err = fd.QualitySetScratch(j, fds, scr)
	return err
}

// FullStep is one hop of a full-data join path for Realize. Encoded, when
// set, is a prebuilt encoding of Table (an owned source's, built once at
// registration); otherwise Realize encodes Table itself.
type FullStep struct {
	Table   *relation.Table
	Encoded *relation.Columnar
	On      []string // ignored for the first step
}

// Realize joins full (not sampled) tables along steps, left to right, and
// measures the join's correlation (req's X/Y split) and its quality under
// fds: the "measure on full data" step of DANCE's online phase and of the
// Sec 6 evaluation protocol. Only Correlation and Quality of the returned
// metrics are set; weight and price are the caller's. The join runs on up
// to req.Workers goroutines (≤ 0: one per CPU) and is bit-identical for
// every worker count.
//
// Tables without a prebuilt encoding are encoded for this call only, and
// float measure columns that are never joined or grouped on stay raw
// floats: a dictionary of mostly distinct prices costs a hash insert per
// cell and buys the metrics nothing. Such columns of the returned join are
// therefore not dictionary-coded.
func Realize(steps []FullStep, req Request, fds []fd.FD) (*relation.Columnar, Metrics, error) {
	x, y, err := req.corrAttrs()
	if err != nil {
		return nil, Metrics{}, err
	}
	grouped := map[string]bool{}
	for _, st := range steps {
		for _, a := range st.On {
			grouped[a] = true
		}
	}
	for _, a := range y {
		grouped[a] = true
	}
	for _, f := range fds {
		for _, a := range f.Attrs() {
			grouped[a] = true
		}
	}
	csteps := make([]sampling.ColumnarStep, len(steps))
	for i, st := range steps {
		c := st.Encoded
		if c == nil {
			if c, err = encodeFull(st.Table, grouped); err != nil {
				return nil, Metrics{}, err
			}
		}
		csteps[i] = sampling.ColumnarStep{C: c, On: st.On}
	}
	// Eta 0 never re-samples: a plain left-deep join.
	opts := sampling.PathJoinOptions{Workers: parallel.DefaultWorkers(req.Workers)}
	j, _, err := sampling.ResampledJoinPathColumnar(csteps, opts, nil)
	if err != nil {
		return nil, Metrics{}, err
	}
	var m Metrics
	if err := m.measure(j, x, y, fds, nil); err != nil {
		return nil, Metrics{}, err
	}
	return j, m, nil
}

// encodeFull encodes t for Realize: non-categorical float columns that are
// not in grouped stay raw, every other column is dictionary-coded. The
// metrics only read such a column as numbers (a numeric X attribute) or
// carry it along.
func encodeFull(t *relation.Table, grouped map[string]bool) (*relation.Columnar, error) {
	var coded, raw []string
	for _, col := range t.Schema.Columns() {
		if col.Kind == relation.KindFloat && !col.IsCategorical() && !grouped[col.Name] {
			raw = append(raw, col.Name)
		} else {
			coded = append(coded, col.Name)
		}
	}
	return relation.ToColumnarSubset(t, coded, raw)
}

// EvaluateOnTables computes *real* metrics of tg by joining the given full
// tables (keyed by instance name) instead of the samples — the evaluation
// protocol of Sec 6 measures real correlation even for sample-based
// searches. Prices remain marketplace quotes.
func (s *Searcher) EvaluateOnTables(ctx context.Context, tg *joingraph.TargetGraph, req Request, tables map[string]*relation.Table) (Metrics, error) {
	hops, err := tg.JoinPlan()
	if err != nil {
		return Metrics{}, err
	}
	// Swap each sample for its full table.
	steps := make([]FullStep, len(hops))
	for i, h := range hops {
		name := tg.G.Instances[h.Vertex].Name
		ft, ok := tables[name]
		if !ok {
			return Metrics{}, fmt.Errorf("search: no full table for instance %q", name)
		}
		steps[i] = FullStep{Table: ft, On: h.On}
	}
	_, m, err := Realize(steps, req, tg.FDs())
	if err != nil {
		return Metrics{}, err
	}
	m.Weight = tg.Weight()
	if m.Price, err = tg.Price(ctx); err != nil {
		return Metrics{}, err
	}
	return m, nil
}

// step1JitterTrials and step1JitterFactor diversify the Step 1 candidate
// pool: besides the exact minimal-weight landmark unions, extra rounds run
// on multiplicatively jittered edge weights (factors in [0.5, 1.5]), so
// near-minimal I-graphs enter the pool too; a final round uses unit weights,
// yielding the fewest-joins tree (the paper's own intuition: shorter join
// paths render higher correlation). Trees are always re-weighted with the
// true weights before α-filtering and ranking, and Step 2 picks among
// candidates by estimated correlation — low weight is the paper's *proxy*
// for high correlation (Sec 5), not the objective itself.
const (
	step1JitterTrials = 4
	step1JitterFactor = 1.0
)

// step1Candidates runs Step 1 (Sec 5.1): enumerate source and target covers,
// build terminals, and collect minimal-weight I-graphs via the landmark
// heuristic. Candidates are deduplicated, weight-filtered by α, sorted by
// weight, and capped at MaxIGraphs.
func (s *Searcher) step1Candidates(req Request) ([]*graphalg.SteinerTree, error) {
	il := s.G.ILayer()
	rng := rand.New(rand.NewSource(req.Seed))

	targetCovers, err := s.G.TargetCovers(req.TargetAttrs, req.MaxCovers)
	if err != nil {
		return nil, err
	}
	var sourceCovers [][]int
	if len(req.SourceAttrs) > 0 {
		// SourceCovers pins source attributes to owned instances when the
		// shopper holds them: the paper joins S ∪ T, so owned data always
		// participates. Remaining covers are sorted to prefer owned
		// (free) instances.
		sourceCovers, err = s.G.SourceCovers(req.SourceAttrs, req.MaxCovers)
		if err != nil {
			return nil, err
		}
		sort.SliceStable(sourceCovers, func(a, b int) bool {
			return s.nonOwnedCount(sourceCovers[a]) < s.nonOwnedCount(sourceCovers[b])
		})
	} else {
		sourceCovers = [][]int{nil}
	}

	seen := map[string]bool{}
	var cands []*graphalg.SteinerTree
	for trial := 0; trial <= step1JitterTrials; trial++ {
		g := il
		switch {
		case trial == step1JitterTrials:
			// Unit weights: shortest paths minimize join-path length.
			g = reweighted(il, func(float64) float64 { return 1 })
		case trial > 0:
			// A uniform factor in [1−factor/2, 1+factor/2] per edge.
			g = reweighted(il, func(w float64) float64 { return w * (1 + step1JitterFactor*(rng.Float64()-0.5)) })
		}
		lm := g.BuildLandmarks(req.Landmarks, rng)
		for _, sc := range sourceCovers {
			for _, tc := range targetCovers {
				terminals := dedupe(append(append([]int{}, sc...), tc...))
				sort.Ints(terminals)
				if len(terminals) == 0 {
					continue
				}
				var trees []*graphalg.SteinerTree
				if len(terminals) == 1 {
					trees = []*graphalg.SteinerTree{{Vertices: terminals}}
				} else {
					trees = g.SteinerLandmarkCandidates(lm, terminals)
				}
				for _, tr := range trees {
					if trial > 0 {
						tr = reweightTree(il, tr)
					}
					if req.Alpha > 0 && tr.Weight > req.Alpha {
						continue // Sec 5.1: no I-graph within α → skip
					}
					key := treeFingerprint(tr)
					if !seen[key] {
						seen[key] = true
						cands = append(cands, tr)
					}
				}
			}
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].Weight < cands[b].Weight })
	if len(cands) > req.MaxIGraphs {
		cands = cands[:req.MaxIGraphs]
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("search: no I-graph connects the source and target attributes within α=%v: %w", req.Alpha, ErrInfeasible)
	}
	return cands, nil
}

// reweighted returns a copy of g with every edge weight w replaced by f(w),
// edges visited in g.Edges() order.
func reweighted(g *graphalg.Graph, f func(w float64) float64) *graphalg.Graph {
	out := graphalg.NewGraph(g.N())
	for _, e := range g.Edges() {
		out.AddEdge(e[0], e[1], f(g.Weight(e[0], e[1])))
	}
	return out
}

// reweightTree recomputes a candidate's weight on the true I-layer weights.
func reweightTree(il *graphalg.Graph, tr *graphalg.SteinerTree) *graphalg.SteinerTree {
	w := 0.0
	for _, e := range tr.Edges {
		w += il.Weight(e[0], e[1])
	}
	return &graphalg.SteinerTree{Vertices: tr.Vertices, Edges: tr.Edges, Weight: w}
}

func (s *Searcher) nonOwnedCount(cover []int) int {
	n := 0
	for _, i := range cover {
		if !s.G.Instances[i].Owned {
			n++
		}
	}
	return n
}

func treeFingerprint(tr *graphalg.SteinerTree) string {
	var b strings.Builder
	for _, v := range tr.Vertices {
		b.WriteString(strconv.Itoa(v))
		b.WriteByte(',')
	}
	for _, e := range tr.Edges {
		b.WriteString(strconv.Itoa(e[0]))
		b.WriteByte('-')
		b.WriteString(strconv.Itoa(e[1]))
		b.WriteByte(';')
	}
	return b.String()
}

// treeToTargetGraph converts a Step 1 I-graph into an initial target graph:
// each tree edge starts at its minimal-JI variant and requested attributes
// are assigned to covering tree vertices.
func (s *Searcher) treeToTargetGraph(tr *graphalg.SteinerTree, req Request) (*joingraph.TargetGraph, error) {
	edges := make([]joingraph.TGEdge, 0, len(tr.Edges))
	for _, e := range tr.Edges {
		ie := s.G.EdgeBetween(e[0], e[1])
		if ie == nil {
			return nil, fmt.Errorf("search: I-graph edge (%d,%d) missing from join graph", e[0], e[1])
		}
		i, j := e[0], e[1]
		if i > j {
			i, j = j, i
		}
		edges = append(edges, joingraph.TGEdge{I: i, J: j, Variant: ie.MinVariant()})
	}
	all := append(append([]string{}, req.SourceAttrs...), req.TargetAttrs...)
	assign, err := s.G.AssignAttrs(dedupe(all), tr.Vertices)
	if err != nil {
		return nil, err
	}
	return joingraph.NewTargetGraph(s.G, tr.Vertices, edges, assign)
}

// dedupe returns xs without repeats, keeping first occurrences in order.
func dedupe[T comparable](xs []T) []T {
	seen := map[T]bool{}
	var out []T
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// chainSeed derives a deterministic per-candidate RNG seed from the request
// seed and the candidate's Step 1 index (splitmix64 mixing), so every MCMC
// chain is reproducible in isolation, no matter which worker runs it or in
// what order chains finish.
func chainSeed(seed int64, i int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// mcmcSegmentIters is the target segment length of a chain's walk: a
// candidate's ℓ iterations split into ceil(ℓ/mcmcSegmentIters) segments —
// a function of ℓ alone, never of Workers, so the unit list (and with it
// every RNG stream) is identical for every worker count. Segments restart
// from the candidate's initial target graph, trading some walk depth for
// parallelism; 16 keeps enough consecutive steps for the Metropolis chain
// to escape the initial state while giving 8 workers ~7 units per candidate
// at the default ℓ=100. mcmcMaxSegments bounds the unit list for huge ℓ
// (segments grow past mcmcSegmentIters instead): 64 units per candidate
// saturate any realistic pool, and an unbounded count would materialize
// ℓ/16 structs for a cancellation-bounded ℓ=2³⁰ request.
const (
	mcmcSegmentIters = 16
	mcmcMaxSegments  = 64
)

// segmentSeed derives the RNG stream of one (candidate, segment) pair by
// composing the splitmix64 chain derivation twice. Streams depend only on
// (request seed, candidate index, segment index) — never on scheduling.
func segmentSeed(seed int64, cand, seg int) int64 {
	return chainSeed(chainSeed(seed, cand), seg)
}

// chainPlan is one Step 1 candidate prepared for segmented MCMC.
type chainPlan struct {
	tg        *joingraph.TargetGraph // nil when the candidate was unconvertible (skipped)
	swappable []int                  // edge indexes with ≥ 2 variants
	segs      int                    // 0 when nothing is swappable: initial evaluation only
	init      Metrics                // tg's metrics, evaluated by phase 0
}

// chainPlans converts Step 1 candidates into target graphs and fixes each
// one's segmentation. viable counts the convertible candidates.
func (s *Searcher) chainPlans(cands []*graphalg.SteinerTree, req Request) (plans []chainPlan, viable int) {
	plans = make([]chainPlan, len(cands))
	for i, tr := range cands {
		tg, err := s.treeToTargetGraph(tr, req)
		if err != nil {
			continue // unconvertible candidate: skip, as the serial loop did
		}
		p := chainPlan{tg: tg}
		for ei, e := range tg.Edges {
			if len(s.G.EdgeBetween(e.I, e.J).Variants) > 1 {
				p.swappable = append(p.swappable, ei)
			}
		}
		if len(p.swappable) > 0 {
			p.segs = (req.Iterations + mcmcSegmentIters - 1) / mcmcSegmentIters
			if p.segs > mcmcMaxSegments {
				p.segs = mcmcMaxSegments
			}
		}
		plans[i] = p
		viable++
	}
	return plans, viable
}

// segUnit is one independently runnable MCMC segment.
type segUnit struct {
	cand, seg, iters int
}

// segmentUnits flattens the plans' segments into one candidate-major work
// list; segment s of a candidate gets iters/segs iterations plus one of the
// remainder, so per-candidate proposal counts sum to exactly ℓ.
func segmentUnits(plans []chainPlan, iterations int) []segUnit {
	var units []segUnit
	for ci, p := range plans {
		if p.segs == 0 {
			continue
		}
		base, extra := iterations/p.segs, iterations%p.segs
		for sg := 0; sg < p.segs; sg++ {
			it := base
			if sg < extra {
				it++
			}
			units = append(units, segUnit{cand: ci, seg: sg, iters: it})
		}
	}
	return units
}

// walkEvals counts a segmented search's metric evaluations: every viable
// candidate's initial state plus every proposal.
func walkEvals(plans []chainPlan, units []segUnit) int {
	n := 0
	for _, p := range plans {
		if p.tg != nil {
			n++
		}
	}
	for _, u := range units {
		n += u.iters
	}
	return n
}

// phase0 is the start every search shares: Step 1's candidates, converted
// to chain plans, with each viable candidate's initial target graph
// evaluated once. The chains all restart from that state, so evaluating it
// up front (a) avoids re-deriving it per segment and (b) warms the
// prefix/join-index caches before the fan-out. Workers left over once every
// candidate has one fan into each evaluation's columnar join and grouping
// kernels (which are bit-identical for every worker count). It also returns
// the search's scope — the resolved pool and its goroutines' scratch — which
// the caller's walk keeps using.
func (s *Searcher) phase0(ctx context.Context, req Request) ([]chainPlan, *scope, error) {
	cands, err := s.step1Candidates(req)
	if err != nil {
		return nil, nil, err
	}
	plans, viable := s.chainPlans(cands, req)
	sc := s.newScope(req.Workers)
	perInit := 1
	if viable > 0 && sc.workers/viable > 1 {
		perInit = sc.workers / viable
	}
	err = parallel.ForEachWorker(ctx, len(plans), sc.workers, func(w, i int) error {
		if plans[i].tg == nil {
			return nil
		}
		var err error
		plans[i].init, err = s.evaluate(ctx, plans[i].tg, req, perInit, sc.scratch(w))
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return plans, sc, nil
}

// scope is the working memory of one search call: a scratch and an RNG per
// pool goroutine, made on first use. Each belongs to the goroutine that
// runs as its worker index, and all of it is dropped when the search
// returns, so a search never leaves a free list behind.
type scope struct {
	s       *Searcher
	workers int
	scr     []*relation.Scratch
	rngs    []*rand.Rand
}

// newScope sizes a scope for a search of req.Workers (≤ 0: one per CPU).
func (s *Searcher) newScope(workers int) *scope {
	n := parallel.DefaultWorkers(workers)
	return &scope{s: s, workers: n, scr: make([]*relation.Scratch, n), rngs: make([]*rand.Rand, n)}
}

// newScratch returns an empty scratch that joins through the searcher's
// schema memo.
func (s *Searcher) newScratch() *relation.Scratch { return relation.NewScratch(s.caches.schemas) }

// scratch returns worker w's scratch.
func (sc *scope) scratch(w int) *relation.Scratch {
	if sc.scr[w] == nil {
		sc.scr[w] = sc.s.newScratch()
	}
	return sc.scr[w]
}

// rng returns worker w's RNG, re-seeded: the stream is the one
// rand.New(rand.NewSource(seed)) yields, without a fresh source per
// segment.
func (sc *scope) rng(w int, seed int64) *rand.Rand {
	if sc.rngs[w] == nil {
		sc.rngs[w] = rand.New(rand.NewSource(seed))
		return sc.rngs[w]
	}
	sc.rngs[w].Seed(seed)
	return sc.rngs[w]
}

// bestFold keeps the feasible state with the highest estimated correlation:
// the first one added wins ties, so folding in a fixed order is
// deterministic.
type bestFold struct {
	tg    *joingraph.TargetGraph
	m     Metrics
	found bool
}

func (b *bestFold) add(tg *joingraph.TargetGraph, m Metrics) {
	if !b.found || m.Correlation > b.m.Correlation {
		b.tg, b.m, b.found = tg, m, true
	}
}

// Heuristic runs the full two-step search: Step 1 minimal-weight I-graphs,
// then Algorithm 1's MCMC over join-attribute variants on each candidate,
// keeping the feasible target graph with the highest estimated correlation.
//
// Step 2 parallelism is intra-chain: each candidate's walk splits into
// fixed-length segments (chainPlans/segmentUnits), every segment restarting
// from the candidate's initial target graph with an RNG stream derived from
// (Seed, candidate, segment), and a pool of req.Workers goroutines drains
// the flattened unit list — so eight workers help even when Step 1 yields
// two candidates. The reduction scans results in (candidate, segment) input
// order, so the outcome is bit-identical for every worker count. Cancelling
// ctx stops every segment mid-walk and returns ctx.Err().
func (s *Searcher) Heuristic(ctx context.Context, req Request) (*Result, error) {
	req = req.withDefaults()
	plans, sc, err := s.phase0(ctx, req)
	if err != nil {
		return nil, err
	}
	// Each segment folds the states its walk accepts. A rejected proposal
	// was never the walk's state, so it is no candidate.
	units := segmentUnits(plans, req.Iterations)
	segBest := make([]bestFold, len(units))
	err = s.mcmcWalk(ctx, req, plans, units, sc, func(u int, tg *joingraph.TargetGraph, m Metrics, accepted bool) {
		if accepted {
			segBest[u].add(tg, m)
		}
	})
	if err != nil {
		return nil, err
	}

	// Reduce in candidate-major, then segment, order, each candidate's
	// initial state first: the outcome is independent of the worker count.
	var best bestFold
	ui := 0
	for ci, p := range plans {
		if p.tg != nil && p.init.Feasible(req) {
			best.add(p.tg, p.init)
		}
		for ; ui < len(units) && units[ui].cand == ci; ui++ {
			if segBest[ui].found {
				best.add(segBest[ui].tg, segBest[ui].m)
			}
		}
	}
	if !best.found {
		return nil, fmt.Errorf("search: no feasible target graph (budget %v, α %v, β %v): %w", req.Budget, req.Alpha, req.Beta, ErrInfeasible)
	}
	evals := walkEvals(plans, units)
	return &Result{TG: best.tg, Est: best.m, Evals: evals, Considered: evals}, nil
}

// mcmcWalk runs every segment of Algorithm 1 (FindJoinTree_AttSet) on a
// pool of workers goroutines. Segment u makes units[u].iters variant-swap
// proposals with Metropolis acceptance min(1, CORR'/CORR) (strict
// improvements only in greedy ablation mode), walking from its candidate's
// initial target graph with the (Seed, candidate, segment) RNG stream, and
// reports every feasible proposal to visit together with whether the walk
// accepted it. visit runs on the segment's goroutine. The context is
// checked every iteration, so a cancelled request stops mid-walk. Segments
// run on sc's pool, each with its goroutine's scratch and RNG.
func (s *Searcher) mcmcWalk(ctx context.Context, req Request, plans []chainPlan, units []segUnit, sc *scope,
	visit func(u int, tg *joingraph.TargetGraph, m Metrics, accepted bool)) error {

	return parallel.ForEachWorker(ctx, len(units), sc.workers, func(w, u int) error {
		un := units[u]
		p := plans[un.cand]
		rng := sc.rng(w, segmentSeed(req.Seed, un.cand, un.seg))
		scr := sc.scratch(w)
		cur, curM := p.tg, p.init
		for it := 0; it < un.iters; it++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			ei := p.swappable[rng.Intn(len(p.swappable))]
			edge := cur.Edges[ei]
			variants := s.G.EdgeBetween(edge.I, edge.J).Variants
			nv := rng.Intn(len(variants) - 1)
			if nv >= edge.Variant {
				nv++ // a *different* variant, uniform over the rest
			}
			cand := cur.Clone()
			cand.Edges[ei].Variant = nv

			candM, err := s.evaluate(ctx, cand, req, 1, scr)
			if err != nil {
				return err
			}
			// Line 8 of Algorithm 1: constraint check first.
			if !candM.Feasible(req) {
				continue
			}
			// Line 9: accept with probability min(1, CORR'/CORR).
			accept := true
			if candM.Correlation < curM.Correlation {
				if req.Greedy {
					accept = false
				} else if curM.Correlation > 0 {
					accept = rng.Float64() < candM.Correlation/curM.Correlation
				}
			}
			visit(u, cand, candM, accept)
			if accept {
				cur, curM = cand, candM
			}
		}
		return nil
	})
}
