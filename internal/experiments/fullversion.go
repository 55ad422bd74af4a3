package experiments

import (
	"context"
	"fmt"
	"time"
)

// FigTPCHBudgetTime reproduces the experiment the paper defers to its full
// version: "We also measure the time performance on TPC-H dataset [w.r.t.
// various budget ratios], and have similar observation as TPC-E dataset"
// (Sec 6.2). Same protocol as Fig 5(c), on TPC-H, with LP/GP columns since
// they are feasible there.
func FigTPCHBudgetTime(ctx context.Context, opts Fig5Options) (Table, error) {
	opts = opts.withDefaults()
	queries := TPCHQueries()
	tab := Table{
		ID:      "figx-tpch-budget-time",
		Title:   "Time (s) vs budget ratio (TPC-H, full-version experiment; N/A = not affordable)",
		Headers: []string{"budget_ratio", "Q1_s", "Q2_s", "Q3_s"},
	}
	env, err := NewEnv(EnvConfig{Dataset: "tpch", Scale: opts.Scale, Seed: opts.Seed, Rate: opts.Rate})
	if err != nil {
		return tab, err
	}
	ubs := make([]float64, len(queries))
	for qi, q := range queries {
		req := env.Request(q, opts.Seed)
		_, ub, err := env.FullSearcher().PriceRange(ctx, req)
		if err != nil {
			return tab, fmt.Errorf("tpch budget time %s price range: %w", q.Name, err)
		}
		ubs[qi] = ub
	}
	for _, r := range opts.Ratios {
		row := []string{fmt.Sprintf("%.2f", r)}
		for qi, q := range queries {
			req := env.Request(q, opts.Seed)
			req.Iterations = opts.Iterations
			req.Budget = r * ubs[qi]
			start := time.Now()
			_, err := env.SampledSearcher().Heuristic(ctx, req)
			elapsed := time.Since(start).Seconds()
			if err != nil {
				row = append(row, "N/A")
				continue
			}
			row = append(row, fmtSeconds(elapsed))
		}
		tab.Rows = append(tab.Rows, row)
	}
	return tab, nil
}
