// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec 6) plus the ablations listed in DESIGN.md. Each experiment
// returns structured Tables that cmd/dancebench renders and bench_test.go
// wraps in testing.B benchmarks.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/joingraph"
	"github.com/dance-db/dance/internal/marketplace"
	"github.com/dance-db/dance/internal/policy"
	"github.com/dance-db/dance/internal/pricing"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/sampling"
	"github.com/dance-db/dance/internal/search"
	"github.com/dance-db/dance/internal/tpce"
	"github.com/dance-db/dance/internal/tpch"
)

// Table is one rendered experiment artifact (a paper table or one panel of
// a figure).
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// QuerySpec is one acquisition query of Sec 6.1.
type QuerySpec struct {
	Name        string
	SourceAttrs []string
	TargetAttrs []string
	// PathLen is the intended minimal join-path length (instances).
	PathLen int
}

// TPCHInstanceOrder fixes the prefix order for "number of instances" sweeps:
// the first five tables support all three TPC-H queries.
var TPCHInstanceOrder = []string{
	"orders", "customer", "nation", "region", "lineitem",
	"supplier", "partsupp", "part",
}

// TPCHQueries mirrors Sec 6.1: join-path lengths 2, 3 and 5.
func TPCHQueries() []QuerySpec {
	return []QuerySpec{
		{Name: "Q1", SourceAttrs: []string{"totalprice"}, TargetAttrs: []string{"mktsegment"}, PathLen: 2},
		{Name: "Q2", SourceAttrs: []string{"totalprice"}, TargetAttrs: []string{"nname"}, PathLen: 3},
		{Name: "Q3", SourceAttrs: []string{"extendedprice"}, TargetAttrs: []string{"mktsegment", "rname"}, PathLen: 5},
	}
}

// TPCEInstanceOrder: the first ten tables contain the full length-8 Q3
// spine plus daily_market; later prefixes add alternative routes (trade,
// holding), which makes I-graph sizes fluctuate as in Fig 5(b).
var TPCEInstanceOrder = []string{
	"customer_account", "customer", "watch_list", "watch_item", "security",
	"company", "industry", "sector", "daily_market", "broker",
	"address", "zip_code", "financial", "last_trade", "news_item",
	"news_xref", "exchange", "status_type", "taxrate", "customer_taxrate",
	"charge", "commission_rate", "trade_type", "holding_summary", "settlement",
	"trade", "trade_history", "holding", "holding_history",
}

// TPCEQueries mirrors Sec 6.1: join-path lengths 3, 5 and 8.
func TPCEQueries() []QuerySpec {
	return []QuerySpec{
		{Name: "Q1", SourceAttrs: []string{"dmclose"}, TargetAttrs: []string{"compname"}, PathLen: 3},
		{Name: "Q2", SourceAttrs: []string{"dmclose"}, TargetAttrs: []string{"sectorname"}, PathLen: 5},
		{Name: "Q3", SourceAttrs: []string{"cabalance"}, TargetAttrs: []string{"sectorname"}, PathLen: 8},
	}
}

// EnvConfig parameterizes an experiment environment.
type EnvConfig struct {
	Dataset      string // "tpch" or "tpce"
	Scale        int
	Seed         int64
	Rate         float64 // correlated-sampling rate for the LP/heuristic graph
	NumInstances int     // prefix of the instance order; 0 = all
	MaxJoinAttrs int
	// Workers is applied to every request built by Env.Request; 0 falls
	// back to DefaultWorkers at NewEnv time. Search results are identical
	// for every worker count — only wall-clock time changes — so timed
	// experiments stay comparable across settings.
	Workers int
}

// Env is a ready-to-search experiment environment: a marketplace over the
// generated dataset, one join graph built from correlated samples (the
// heuristic's and LP's input) and one from the full data (GP's input).
type Env struct {
	Cfg     EnvConfig
	Order   []string
	Tables  map[string]*relation.Table
	FDs     map[string][]fd.FD
	Market  *marketplace.InMemory
	Sampled *joingraph.Graph
	Full    *joingraph.Graph
}

// NewEnv builds the environment.
func NewEnv(cfg EnvConfig) (*Env, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 2
	}
	if cfg.Rate <= 0 || cfg.Rate > 1 {
		cfg.Rate = 1
	}
	if cfg.MaxJoinAttrs <= 0 {
		cfg.MaxJoinAttrs = 2
	}
	if cfg.Workers == 0 {
		cfg.Workers = DefaultWorkers
	}
	var order []string
	tables := map[string]*relation.Table{}
	fds := map[string][]fd.FD{}
	switch cfg.Dataset {
	case "tpch":
		d := tpch.Generate(tpch.Config{Scale: cfg.Scale, Seed: cfg.Seed, DirtyFraction: 0.3})
		order = TPCHInstanceOrder
		for _, t := range d.Tables {
			tables[t.Name] = t
		}
		fds = d.FDs
	case "tpce":
		d := tpce.Generate(tpce.Config{Scale: cfg.Scale, Seed: cfg.Seed, DirtyFraction: 0.2})
		order = TPCEInstanceOrder
		for _, t := range d.Tables {
			tables[t.Name] = t
		}
		fds = d.FDs
	default:
		return nil, fmt.Errorf("experiments: unknown dataset %q", cfg.Dataset)
	}
	if cfg.NumInstances > 0 && cfg.NumInstances < len(order) {
		order = order[:cfg.NumInstances]
	}

	market := marketplace.NewInMemory(pricing.Cached(pricing.DefaultEntropyModel()))
	for _, name := range order {
		market.Register(tables[name], fds[name])
	}

	env := &Env{Cfg: cfg, Order: order, Tables: tables, FDs: fds, Market: market}
	// Each table is encoded once: the full graph holds the encoding, and
	// the sampled graph's instances are correlated samples drawn from it.
	encoded := make(map[string]*relation.Columnar, len(order))
	for _, name := range order {
		encoded[name] = relation.ToColumnar(tables[name])
	}
	var err error
	env.Sampled, err = env.buildGraph(encoded, cfg.Rate)
	if err != nil {
		return nil, err
	}
	if cfg.Rate >= 1 {
		env.Full = env.Sampled
	} else {
		env.Full, err = env.buildGraph(encoded, 1)
		if err != nil {
			return nil, err
		}
	}
	return env, nil
}

func (e *Env) buildGraph(encoded map[string]*relation.Columnar, rate float64) (*joingraph.Graph, error) {
	// Each sample is drawn on the attribute its table shares with the most
	// other listed tables (see DESIGN.md on sampling one join attribute).
	catalog := make([]marketplace.DatasetInfo, len(e.Order))
	for i, name := range e.Order {
		catalog[i] = marketplace.DatasetInfo{Name: name, Attrs: e.Tables[name].Schema.Columns()}
	}
	var instances []*joingraph.Instance
	for i, name := range e.Order {
		full := e.Tables[name]
		sample := encoded[name]
		if rate < 1 {
			var err error
			sample, err = sampling.CorrelatedSampleColumnar(sample, []string{policy.PrimaryJoinAttr(catalog[i], catalog)}, rate,
				sampling.NewHasher(uint64(e.Cfg.Seed)+12345))
			if err != nil {
				return nil, err
			}
			// Re-encode the sample so its dictionaries are sample-sized,
			// as a held sample's are after it arrives as a table: kernel
			// costs (and the ranked-CORR choice) depend on dictionary size.
			sample = relation.ToColumnar(sample.ToTable())
		}
		instances = append(instances, &joingraph.Instance{
			Name:     name,
			Columnar: sample,
			FullRows: full.NumRows(),
			FDs:      e.FDs[name],
		})
	}
	return joingraph.Build(instances, joingraph.Config{
		MaxJoinAttrs: e.Cfg.MaxJoinAttrs,
		Quoter:       e.Market,
	})
}

// DefaultWorkers seeds EnvConfig.Workers for configs that leave it zero.
// cmd/dancebench sets it once from -workers before running experiments
// (the option structs predate the knob); it is read only at NewEnv time,
// so an Env's behavior is fixed by its own config afterwards. Zero means
// one MCMC chain per CPU (the search engine's default).
var DefaultWorkers int

// Request builds the acquisition request for a query with unbounded budget
// and loose constraints (experiments that sweep a constraint override it).
func (e *Env) Request(q QuerySpec, seed int64) search.Request {
	return search.Request{
		SourceAttrs: q.SourceAttrs,
		TargetAttrs: q.TargetAttrs,
		Budget:      0, // unbounded
		Alpha:       0, // unbounded
		Beta:        0,
		Iterations:  80,
		Seed:        seed,
		Workers:     e.Cfg.Workers,
	}
}

// SampledSearcher returns a fresh searcher over the sample-built graph.
// Fresh searchers avoid cross-contaminating evaluation caches between
// timed runs and between requests with different re-sampling parameters.
func (e *Env) SampledSearcher() *search.Searcher { return search.NewSearcher(e.Sampled) }

// FullSearcher returns a fresh searcher over the full-data graph (GP).
func (e *Env) FullSearcher() *search.Searcher { return search.NewSearcher(e.Full) }

// RealMetrics evaluates a found target graph on the full tables (the
// paper's protocol: report real correlation, not estimates). The target
// graph may come from either graph; instance names resolve the full tables.
// The Weight field is recomputed from full-data join informativeness so
// sample-based and full-data searches are compared on the same scale.
func (e *Env) RealMetrics(ctx context.Context, s *search.Searcher, res *search.Result, req search.Request) (search.Metrics, error) {
	m, err := s.EvaluateOnTables(ctx, res.TG, req, e.Tables)
	if err != nil {
		return m, err
	}
	w, err := e.realWeight(res.TG)
	if err != nil {
		return m, err
	}
	m.Weight = w
	return m, nil
}

// realWeight sums the full-data JI of the target graph's chosen join
// attributes by resolving each edge against the full-data join graph.
func (e *Env) realWeight(tg *joingraph.TargetGraph) (float64, error) {
	total := 0.0
	for _, edge := range tg.Edges {
		attrs := edge.JoinAttrsOf(tg.G)
		fi := e.Full.InstanceIndex(tg.G.Instances[edge.I].Name)
		fj := e.Full.InstanceIndex(tg.G.Instances[edge.J].Name)
		fe := e.Full.EdgeBetween(fi, fj)
		if fe == nil {
			return 0, fmt.Errorf("experiments: edge %s-%s missing from full graph",
				tg.G.Instances[edge.I].Name, tg.G.Instances[edge.J].Name)
		}
		found := false
		for _, v := range fe.Variants {
			if equalStrings(v.JoinAttrs, attrs) {
				total += v.JI
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("experiments: variant %v missing from full graph edge", attrs)
		}
	}
	return total, nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func fmtF(v float64) string { return fmt.Sprintf("%.4g", v) }

func fmtSeconds(sec float64) string { return fmt.Sprintf("%.4f", sec) }
