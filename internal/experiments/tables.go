package experiments

import (
	"context"
	"fmt"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/tpce"
	"github.com/dance-db/dance/internal/tpch"
)

// Table5Options parameterize the dataset-description table.
type Table5Options struct {
	Scale  int
	Seed   int64
	FDOpts fd.DiscoveryOptions
}

func (o Table5Options) withDefaults() Table5Options {
	if o.Scale <= 0 {
		o.Scale = 2
	}
	if o.FDOpts.MaxError == 0 && o.FDOpts.MaxLHS == 0 {
		o.FDOpts = fd.DiscoveryOptions{MaxError: 0.1, MaxLHS: 2, MaxRows: 500, MinDistinct: 2}
	}
	return o
}

// Table5 regenerates the paper's Table 5: per-dataset instance counts,
// min/max instance sizes, min/max attribute counts, and the average number
// of AFDs per table (θ = 0.1, discovered by the TANE-style miner).
func Table5(ctx context.Context, opts Table5Options) (Table, error) {
	opts = opts.withDefaults()
	tab := Table{
		ID:    "table5",
		Title: "Dataset description (discovered AFDs at θ=0.1)",
		Headers: []string{"dataset", "instances", "min_rows(table)", "max_rows(table)",
			"min_attrs(table)", "max_attrs(table)", "avg_fds_per_table"},
	}
	type gen struct {
		name   string
		tables []namedTable
	}
	hd := tpch.Generate(tpch.Config{Scale: opts.Scale, Seed: opts.Seed, DirtyFraction: 0.3})
	ed := tpce.Generate(tpce.Config{Scale: opts.Scale, Seed: opts.Seed, DirtyFraction: 0.2})
	var hts, ets []namedTable
	for _, t := range hd.Tables {
		hts = append(hts, namedTable{name: t.Name, rows: t.NumRows(), cols: t.NumCols(), t: t})
	}
	for _, t := range ed.Tables {
		ets = append(ets, namedTable{name: t.Name, rows: t.NumRows(), cols: t.NumCols(), t: t})
	}
	for _, g := range []gen{{"TPC-H", hts}, {"TPC-E", ets}} {
		minRows, maxRows := g.tables[0], g.tables[0]
		minAttrs, maxAttrs := g.tables[0], g.tables[0]
		totalFDs := 0
		for _, nt := range g.tables {
			if nt.rows < minRows.rows {
				minRows = nt
			}
			if nt.rows > maxRows.rows {
				maxRows = nt
			}
			if nt.cols < minAttrs.cols {
				minAttrs = nt
			}
			if nt.cols > maxAttrs.cols {
				maxAttrs = nt
			}
			fds, err := fd.Discover(relation.ToColumnar(nt.t), opts.FDOpts)
			if err != nil {
				return tab, fmt.Errorf("table5 FD count on %s: %w", nt.name, err)
			}
			totalFDs += len(fds)
		}
		tab.Rows = append(tab.Rows, []string{
			g.name,
			fmt.Sprint(len(g.tables)),
			fmt.Sprintf("%d (%s)", minRows.rows, minRows.name),
			fmt.Sprintf("%d (%s)", maxRows.rows, maxRows.name),
			fmt.Sprintf("%d (%s)", minAttrs.cols, minAttrs.name),
			fmt.Sprintf("%d (%s)", maxAttrs.cols, maxAttrs.name),
			fmt.Sprintf("%.1f", float64(totalFDs)/float64(len(g.tables))),
		})
	}
	return tab, nil
}

type namedTable struct {
	name string
	rows int
	cols int
	t    *relation.Table
}

// FDCounts regenerates the Sec 6.1 FD measurements: the per-table AFD count
// at θ = 0.1 for the chosen dataset.
func FDCounts(ctx context.Context, dataset string, opts Table5Options) (Table, error) {
	opts = opts.withDefaults()
	tab := Table{
		ID:      "fdcount-" + dataset,
		Title:   fmt.Sprintf("Discovered AFDs per table (%s, θ=0.1, LHS ≤ %d)", dataset, opts.FDOpts.MaxLHS),
		Headers: []string{"table", "rows", "attrs", "afds"},
	}
	env, err := NewEnv(EnvConfig{Dataset: dataset, Scale: opts.Scale, Seed: opts.Seed, Rate: 1})
	if err != nil {
		return tab, err
	}
	for _, name := range env.Order {
		t := env.Tables[name]
		fds, err := fd.Discover(relation.ToColumnar(t), opts.FDOpts)
		if err != nil {
			return tab, err
		}
		tab.Rows = append(tab.Rows, []string{name, fmt.Sprint(t.NumRows()), fmt.Sprint(t.NumCols()), fmt.Sprint(len(fds))})
	}
	return tab, nil
}

// Table6Options parameterize the DANCE-vs-direct-purchase comparison.
type Table6Options struct {
	Scale       int
	Seed        int64
	Rate        float64
	BudgetRatio float64
	Iterations  int
}

func (o Table6Options) withDefaults() Table6Options {
	if o.Scale <= 0 {
		o.Scale = 2
	}
	if o.Rate <= 0 {
		o.Rate = 0.5
	}
	if o.BudgetRatio <= 0 {
		// Paper: 0.13; shifted for our pricing's LB/UB band (see
		// EXPERIMENTS.md). The LB clamp below keeps any ratio admissible.
		o.BudgetRatio = 0.55
	}
	if o.Iterations <= 0 {
		o.Iterations = 80
	}
	return o
}

// Table6 regenerates the paper's Table 6: for each TPC-H query at budget
// ratio 0.13, the correlation, quality, join informativeness and price of
// (a) acquisition with DANCE (heuristic on samples) and (b) direct purchase
// from the marketplace (GP on the full data). All metrics are real
// (measured on full data).
func Table6(ctx context.Context, opts Table6Options) (Table, error) {
	opts = opts.withDefaults()
	tab := Table{
		ID:    "table6",
		Title: fmt.Sprintf("DANCE vs direct marketplace purchase (TPC-H, budget ratio %.2f)", opts.BudgetRatio),
		Headers: []string{"query", "approach", "correlation", "quality",
			"join_informativeness", "price"},
	}
	env, err := NewEnv(EnvConfig{Dataset: "tpch", Scale: opts.Scale, Seed: opts.Seed, Rate: opts.Rate})
	if err != nil {
		return tab, err
	}
	for _, q := range TPCHQueries() {
		req := env.Request(q, opts.Seed)
		req.Iterations = opts.Iterations
		lb, ub, err := env.FullSearcher().PriceRange(ctx, req)
		if err != nil {
			return tab, fmt.Errorf("table6 %s price range: %w", q.Name, err)
		}
		// The paper requires r × UB ≥ LB (the shopper can afford at least
		// one target graph); clamp to the smallest admissible budget.
		req.Budget = opts.BudgetRatio * ub
		if min := 1.05 * lb; req.Budget < min {
			// The paper requires r × UB ≥ LB; 5% slack absorbs the gap
			// between the global optimum price and the cheapest plan in
			// the heuristic's candidate pool.
			req.Budget = min
		}

		ss := env.SampledSearcher()
		hres, err := ss.Heuristic(ctx, req)
		if err != nil {
			return tab, fmt.Errorf("table6 %s DANCE: %w", q.Name, err)
		}
		hReal, err := env.RealMetrics(ctx, ss, hres, req)
		if err != nil {
			return tab, err
		}
		tab.Rows = append(tab.Rows, []string{
			q.Name, "With DANCE",
			fmtF(hReal.Correlation), fmtF(hReal.Quality), fmtF(hReal.Weight), fmtF(hReal.Price),
		})

		gs := env.FullSearcher()
		gres, err := gs.BruteForce(ctx, req)
		if err != nil {
			return tab, fmt.Errorf("table6 %s GP: %w", q.Name, err)
		}
		gReal, err := env.RealMetrics(ctx, gs, gres, req)
		if err != nil {
			return tab, err
		}
		tab.Rows = append(tab.Rows, []string{
			q.Name, "Direct purchase",
			fmtF(gReal.Correlation), fmtF(gReal.Quality), fmtF(gReal.Weight), fmtF(gReal.Price),
		})
	}
	return tab, nil
}
