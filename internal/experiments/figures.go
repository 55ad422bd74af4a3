package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/dance-db/dance/internal/search"
)

// Fig4Options parameterize the Figure 4 reproduction (time vs number of
// instances, TPC-H, heuristic vs LP vs GP).
type Fig4Options struct {
	Scale      int
	Seed       int64
	Rate       float64 // sampling rate for heuristic/LP
	Ns         []int   // instance counts (paper: 5..8)
	SkipGP     bool    // GP is the slowest; benches may skip it
	Iterations int
}

func (o Fig4Options) withDefaults() Fig4Options {
	if o.Scale <= 0 {
		o.Scale = 2
	}
	if o.Rate <= 0 {
		o.Rate = 0.5
	}
	if len(o.Ns) == 0 {
		o.Ns = []int{5, 6, 7, 8}
	}
	if o.Iterations <= 0 {
		o.Iterations = 80
	}
	return o
}

// Fig4 regenerates Figure 4(a–c): per query, wall-clock seconds of the
// heuristic, LP (brute force on samples) and GP (brute force on full data)
// for each instance count.
func Fig4(ctx context.Context, opts Fig4Options) ([]Table, error) {
	opts = opts.withDefaults()
	queries := TPCHQueries()
	tables := make([]Table, len(queries))
	for qi, q := range queries {
		tab := Table{
			ID:      fmt.Sprintf("fig4%c", 'a'+qi),
			Title:   fmt.Sprintf("Time (s) vs #instances, TPC-H %s (path len %d)", q.Name, q.PathLen),
			Headers: []string{"n", "heuristic_s", "lp_s", "gp_s"},
		}
		for _, n := range opts.Ns {
			env, err := NewEnv(EnvConfig{
				Dataset: "tpch", Scale: opts.Scale, Seed: opts.Seed, Rate: opts.Rate, NumInstances: n,
			})
			if err != nil {
				return nil, err
			}
			req := env.Request(q, opts.Seed)
			req.Iterations = opts.Iterations

			hTime, err := timeSearch(func() error {
				_, err := env.SampledSearcher().Heuristic(ctx, req)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("fig4 %s n=%d heuristic: %w", q.Name, n, err)
			}
			lpTime, err := timeSearch(func() error {
				_, err := env.SampledSearcher().BruteForce(ctx, req)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("fig4 %s n=%d LP: %w", q.Name, n, err)
			}
			gpCell := "skipped"
			if !opts.SkipGP {
				gpTime, err := timeSearch(func() error {
					_, err := env.FullSearcher().BruteForce(ctx, req)
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("fig4 %s n=%d GP: %w", q.Name, n, err)
				}
				gpCell = fmtSeconds(gpTime)
			}
			tab.Rows = append(tab.Rows, []string{
				fmt.Sprint(n), fmtSeconds(hTime), fmtSeconds(lpTime), gpCell,
			})
		}
		tables[qi] = tab
	}
	return tables, nil
}

func timeSearch(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return time.Since(start).Seconds(), err
}

// Fig5Options parameterize the TPC-E scalability experiments.
type Fig5Options struct {
	Scale      int
	Seed       int64
	Rate       float64
	Ns         []int
	Ratios     []float64 // budget ratios for Fig 5(c)
	Iterations int
}

func (o Fig5Options) withDefaults() Fig5Options {
	if o.Scale <= 0 {
		o.Scale = 2
	}
	if o.Rate <= 0 {
		o.Rate = 0.5
	}
	if len(o.Ns) == 0 {
		o.Ns = []int{10, 15, 20, 25, 29}
	}
	if len(o.Ratios) == 0 {
		// The paper sweeps 0.04–0.12; our entropy pricing on small-scale
		// data has a narrower LB/UB spread (joint entropy is capped by
		// log2(rows)), so the equivalent affordable band sits higher.
		// The shape — N/A below a threshold, rising time above — is
		// what the experiment reproduces (see EXPERIMENTS.md).
		o.Ratios = []float64{0.2, 0.35, 0.5, 0.65, 0.8}
	}
	if o.Iterations <= 0 {
		o.Iterations = 80
	}
	return o
}

// Fig5a regenerates Figure 5(a): heuristic time vs instance count on TPC-E
// (LP/GP are infeasible there, as in the paper).
// Fig5b regenerates Figure 5(b): the I-graph size (tree vertex count) for
// the same sweep. Both come from one pass.
func Fig5ab(ctx context.Context, opts Fig5Options) (Table, Table, error) {
	opts = opts.withDefaults()
	queries := TPCEQueries()
	ta := Table{ID: "fig5a", Title: "Heuristic time (s) vs #instances (TPC-E)",
		Headers: []string{"n", "Q1_s", "Q2_s", "Q3_s"}}
	tb := Table{ID: "fig5b", Title: "I-graph size vs #instances (TPC-E)",
		Headers: []string{"n", "Q1", "Q2", "Q3"}}
	for _, n := range opts.Ns {
		env, err := NewEnv(EnvConfig{
			Dataset: "tpce", Scale: opts.Scale, Seed: opts.Seed, Rate: opts.Rate, NumInstances: n,
		})
		if err != nil {
			return ta, tb, err
		}
		timeRow := []string{fmt.Sprint(n)}
		sizeRow := []string{fmt.Sprint(n)}
		for _, q := range queries {
			req := env.Request(q, opts.Seed)
			req.Iterations = opts.Iterations
			start := time.Now()
			res, err := env.SampledSearcher().Heuristic(ctx, req)
			elapsed := time.Since(start).Seconds()
			if err != nil {
				return ta, tb, fmt.Errorf("fig5 %s n=%d: %w", q.Name, n, err)
			}
			timeRow = append(timeRow, fmtSeconds(elapsed))
			sizeRow = append(sizeRow, fmt.Sprint(len(res.TG.Vertices)))
		}
		ta.Rows = append(ta.Rows, timeRow)
		tb.Rows = append(tb.Rows, sizeRow)
	}
	return ta, tb, nil
}

// Fig5c regenerates Figure 5(c): heuristic time vs budget ratio on TPC-E,
// with "N/A" where the budget cannot afford any acquisition.
func Fig5c(ctx context.Context, opts Fig5Options) (Table, error) {
	opts = opts.withDefaults()
	queries := TPCEQueries()
	tab := Table{ID: "fig5c", Title: "Heuristic time (s) vs budget ratio (TPC-E, N/A = not affordable)",
		Headers: []string{"budget_ratio", "Q1_s", "Q2_s", "Q3_s"}}
	env, err := NewEnv(EnvConfig{Dataset: "tpce", Scale: opts.Scale, Seed: opts.Seed, Rate: opts.Rate})
	if err != nil {
		return tab, err
	}
	// Upper-bound prices per query (approximate range on the big graph).
	ubs := make([]float64, len(queries))
	for qi, q := range queries {
		req := env.Request(q, opts.Seed)
		_, ub, err := env.SampledSearcher().ApproxPriceRange(ctx, req, 32)
		if err != nil {
			return tab, fmt.Errorf("fig5c %s price range: %w", q.Name, err)
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

// Fig6Options parameterize the correlation-difference experiment.
type Fig6Options struct {
	Scale      int
	Seed       int64
	Rates      []float64
	Iterations int
}

func (o Fig6Options) withDefaults() Fig6Options {
	if o.Scale <= 0 {
		o.Scale = 2
	}
	if len(o.Rates) == 0 {
		o.Rates = []float64{0.1, 0.4, 0.7, 1.0}
	}
	if o.Iterations <= 0 {
		o.Iterations = 80
	}
	return o
}

// Fig6 regenerates Figure 6(a–c): correlation difference
// CD = (X_opt − X)/X_opt between the heuristic and LP/GP as the sampling
// rate varies, measured on real correlations (full data).
func Fig6(ctx context.Context, opts Fig6Options) ([]Table, error) {
	opts = opts.withDefaults()
	queries := TPCHQueries()
	out := make([]Table, len(queries))
	for qi, q := range queries {
		tab := Table{
			ID:      fmt.Sprintf("fig6%c", 'a'+qi),
			Title:   fmt.Sprintf("Correlation difference vs sampling rate, TPC-H %s", q.Name),
			Headers: []string{"rate", "cd_vs_lp", "cd_vs_gp"},
		}
		for _, rate := range opts.Rates {
			env, err := NewEnv(EnvConfig{Dataset: "tpch", Scale: opts.Scale, Seed: opts.Seed, Rate: rate})
			if err != nil {
				return nil, err
			}
			req := env.Request(q, opts.Seed)
			req.Iterations = opts.Iterations

			ss := env.SampledSearcher()
			hres, err := ss.Heuristic(ctx, req)
			if err != nil {
				return nil, fmt.Errorf("fig6 %s rate=%v heuristic: %w", q.Name, rate, err)
			}
			hReal, err := env.RealMetrics(ctx, ss, hres, req)
			if err != nil {
				return nil, err
			}
			lp := env.SampledSearcher()
			lpres, err := lp.BruteForce(ctx, req)
			if err != nil {
				return nil, fmt.Errorf("fig6 %s rate=%v LP: %w", q.Name, rate, err)
			}
			lpReal, err := env.RealMetrics(ctx, lp, lpres, req)
			if err != nil {
				return nil, err
			}
			gp := env.FullSearcher()
			gpres, err := gp.BruteForce(ctx, req)
			if err != nil {
				return nil, fmt.Errorf("fig6 %s rate=%v GP: %w", q.Name, rate, err)
			}
			gpReal, err := env.RealMetrics(ctx, gp, gpres, req)
			if err != nil {
				return nil, err
			}
			tab.Rows = append(tab.Rows, []string{
				fmt.Sprintf("%.1f", rate),
				fmtF(corrDiff(lpReal.Correlation, hReal.Correlation)),
				fmtF(corrDiff(gpReal.Correlation, hReal.Correlation)),
			})
		}
		out[qi] = tab
	}
	return out, nil
}

// corrDiff is CD = (Xopt − X)/Xopt, clamped at 0 when the heuristic happens
// to beat the "optimal" real correlation (possible: optima are chosen on
// estimates).
func corrDiff(opt, x float64) float64 {
	if opt <= 0 {
		return 0
	}
	cd := (opt - x) / opt
	if cd < 0 {
		return 0
	}
	return cd
}

// Fig7Options parameterize the correlation-vs-budget experiment.
type Fig7Options struct {
	Scale      int
	Seed       int64
	Rate       float64
	Ratios     []float64
	Iterations int
}

func (o Fig7Options) withDefaults() Fig7Options {
	if o.Scale <= 0 {
		o.Scale = 2
	}
	if o.Rate <= 0 {
		o.Rate = 0.5
	}
	if len(o.Ratios) == 0 {
		// Paper: 0.07–0.15; shifted for our pricing's LB/UB band (see
		// Fig5Options and EXPERIMENTS.md).
		o.Ratios = []float64{0.25, 0.35, 0.45, 0.6, 0.8}
	}
	if o.Iterations <= 0 {
		o.Iterations = 80
	}
	return o
}

// Fig7 regenerates Figure 7(a–c): real correlation vs budget ratio for the
// heuristic, LP, and GP on TPC-H. Rows with no feasible result are "N/A".
func Fig7(ctx context.Context, opts Fig7Options) ([]Table, error) {
	opts = opts.withDefaults()
	queries := TPCHQueries()
	out := make([]Table, len(queries))
	env, err := NewEnv(EnvConfig{Dataset: "tpch", Scale: opts.Scale, Seed: opts.Seed, Rate: opts.Rate})
	if err != nil {
		return nil, err
	}
	for qi, q := range queries {
		tab := Table{
			ID:      fmt.Sprintf("fig7%c", 'a'+qi),
			Title:   fmt.Sprintf("Correlation vs budget ratio, TPC-H %s", q.Name),
			Headers: []string{"budget_ratio", "heuristic", "lp", "gp"},
		}
		req := env.Request(q, opts.Seed)
		_, ub, err := env.FullSearcher().PriceRange(ctx, req)
		if err != nil {
			return nil, fmt.Errorf("fig7 %s price range: %w", q.Name, err)
		}
		for _, r := range opts.Ratios {
			req := env.Request(q, opts.Seed)
			req.Iterations = opts.Iterations
			req.Budget = r * ub

			cell := func(run func() (search.Metrics, error)) string {
				m, err := run()
				if err != nil {
					return "N/A"
				}
				return fmtF(m.Correlation)
			}
			hCell := cell(func() (search.Metrics, error) {
				s := env.SampledSearcher()
				res, err := s.Heuristic(ctx, req)
				if err != nil {
					return search.Metrics{}, err
				}
				return env.RealMetrics(ctx, s, res, req)
			})
			lpCell := cell(func() (search.Metrics, error) {
				s := env.SampledSearcher()
				res, err := s.BruteForce(ctx, req)
				if err != nil {
					return search.Metrics{}, err
				}
				return env.RealMetrics(ctx, s, res, req)
			})
			gpCell := cell(func() (search.Metrics, error) {
				s := env.FullSearcher()
				res, err := s.BruteForce(ctx, req)
				if err != nil {
					return search.Metrics{}, err
				}
				return env.RealMetrics(ctx, s, res, req)
			})
			tab.Rows = append(tab.Rows, []string{fmt.Sprintf("%.2f", r), hCell, lpCell, gpCell})
		}
		out[qi] = tab
	}
	return out, nil
}

// Fig8Options parameterize the re-sampling experiment.
type Fig8Options struct {
	Scale         int
	Seed          int64
	Rate          float64
	ResampleRates []float64
	Eta           int
	Iterations    int
}

func (o Fig8Options) withDefaults() Fig8Options {
	if o.Scale <= 0 {
		o.Scale = 2
	}
	if o.Rate <= 0 {
		o.Rate = 0.9 // long join chains thin quadratically per edge
	}
	if len(o.ResampleRates) == 0 {
		o.ResampleRates = []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	}
	if o.Eta <= 0 {
		// Small threshold so η actually trips at experiment scales.
		o.Eta = 10 * o.Scale
	}
	if o.Iterations <= 0 {
		o.Iterations = 80
	}
	return o
}

// Fig8 regenerates Figure 8(a–c): the correlation of the heuristic's
// acquisition with re-sampling (intermediate joins above η re-sampled at
// rate ρ) against the no-re-sampling correlation, as ρ varies.
func Fig8(ctx context.Context, opts Fig8Options) ([]Table, error) {
	opts = opts.withDefaults()
	queries := TPCHQueries()
	out := make([]Table, len(queries))
	env, err := NewEnv(EnvConfig{Dataset: "tpch", Scale: opts.Scale, Seed: opts.Seed, Rate: opts.Rate})
	if err != nil {
		return nil, err
	}
	for qi, q := range queries {
		tab := Table{
			ID:      fmt.Sprintf("fig8%c", 'a'+qi),
			Title:   fmt.Sprintf("Correlation with vs without re-sampling, TPC-H %s (η=%d)", q.Name, opts.Eta),
			Headers: []string{"resample_rate", "with_resampling", "without_resampling"},
		}
		// Baseline without re-sampling. The paper's Fig 8 compares the
		// *estimated* correlation of the acquisition result, which is
		// where re-sampling bites (real correlation is unaffected once the
		// same target graph is chosen).
		reqBase := env.Request(q, opts.Seed)
		reqBase.Iterations = opts.Iterations
		sBase := env.SampledSearcher()
		base, err := sBase.Heuristic(ctx, reqBase)
		if err != nil {
			return nil, fmt.Errorf("fig8 %s baseline: %w", q.Name, err)
		}
		for _, rho := range opts.ResampleRates {
			// Estimate the chosen graph's correlation under re-sampling at
			// rate ρ: fresh searcher so evaluation caches do not leak
			// between re-sampling configurations.
			req := env.Request(q, opts.Seed)
			req.Iterations = opts.Iterations
			req.Eta = opts.Eta
			req.ResampleRate = rho
			withRes, err := env.SampledSearcher().Evaluate(ctx, base.TG, req)
			if err != nil {
				return nil, fmt.Errorf("fig8 %s ρ=%v: %w", q.Name, rho, err)
			}
			tab.Rows = append(tab.Rows, []string{
				fmt.Sprintf("%.1f", rho), fmtF(withRes.Correlation), fmtF(base.Est.Correlation),
			})
		}
		out[qi] = tab
	}
	return out, nil
}
