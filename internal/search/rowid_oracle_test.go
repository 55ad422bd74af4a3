package search

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/dance-db/dance/internal/joingraph"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/sampling"
	"github.com/dance-db/dance/internal/tpce"
	"github.com/dance-db/dance/internal/tpch"
)

// gatheredPath is the oracle of the evaluator's row-id join paths: the
// gathered formulation they replaced. Every hop is joined and each kept
// column gathered, and a tripped η re-samples the gathered intermediate
// with CorrelatedSampleColumnar.
func gatheredPath(t *testing.T, steps []sampling.ColumnarStep, opts sampling.PathJoinOptions) (*relation.Columnar, sampling.ResampleStats) {
	t.Helper()
	var stats sampling.ResampleStats
	acc := steps[0].C
	for i := 1; i < len(steps); i++ {
		path, err := relation.EquiJoinColumnar(acc, steps[i].C, steps[i].On, nil, relation.JoinOptions{})
		if err != nil {
			t.Fatal(err)
		}
		acc = gather(path)
		stats.IntermediateSizes = append(stats.IntermediateSizes, acc.NumRows())
		resampled := opts.Eta > 0 && i < len(steps)-1 && acc.NumRows() > opts.Eta
		if resampled {
			if acc, err = sampling.CorrelatedSampleColumnar(acc, steps[i+1].On, opts.ResampleRate, opts.Hasher); err != nil {
				t.Fatal(err)
			}
		}
		stats.Resampled = append(stats.Resampled, resampled)
	}
	return acc, stats
}

// gather stores every row of a join path, its columns gathered through the
// path's row ids: the materialized join the oracle joins on.
func gather(c *relation.Columnar) *relation.Columnar {
	rows := make([]int32, c.NumRows())
	for i := range rows {
		rows[i] = int32(i)
	}
	return c.FilterRows(rows)
}

// sameJoin reports how got differs from want, the oracle's gathered join:
// schema, rows, and every cell's code over the same dictionary (or its raw
// value), read through got's row ids.
func sameJoin(want, got *relation.Columnar) error {
	if !want.Schema().Equal(got.Schema()) || want.NumRows() != got.NumRows() {
		return fmt.Errorf("got %s with %d rows, want %s with %d rows", got.Schema(), got.NumRows(), want.Schema(), want.NumRows())
	}
	for col := 0; col < want.Schema().Len(); col++ {
		d, w, g := want.Dict(col), want.CodeCol(col), got.CodeCol(col)
		if d != got.Dict(col) {
			return fmt.Errorf("column %s: another dictionary", want.Schema().Column(col).Name)
		}
		for row := 0; row < want.NumRows(); row++ {
			if d != nil && w.At(row) != g.At(row) ||
				d == nil && !want.ValueAt(row, col).EqualValue(got.ValueAt(row, col)) {
				return fmt.Errorf("column %s row %d differs", want.Schema().Column(col).Name, row)
			}
		}
	}
	return nil
}

// oracleCase is one random target graph and the request that measures it,
// with the gathered oracle's join, stats and metrics at each η.
type oracleCase struct {
	name  string
	tg    *joingraph.TargetGraph
	req   Request
	join  map[int]*relation.Columnar
	stats map[int]sampling.ResampleStats
	m     map[int]Metrics
}

// randomTargetGraphs draws n distinct random join trees of g with 2–6
// instances: each grows from a random instance by a random I-edge with a
// random variant, and the request correlates a random column of the first
// instance (X) with a categorical one of the last (Y).
func randomTargetGraphs(t *testing.T, g *joingraph.Graph, n int, rng *rand.Rand) []oracleCase {
	t.Helper()
	var out []oracleCase
	seen := map[string]bool{}
	for tries := 0; len(out) < n && tries < 100*n; tries++ {
		verts := []int{rng.Intn(len(g.Instances))}
		in := map[int]bool{verts[0]: true}
		var edges []joingraph.TGEdge
		for size := 2 + rng.Intn(5); len(verts) < size; {
			var cands []joingraph.TGEdge
			for _, v := range verts {
				for u := range g.Instances {
					if !in[u] && g.EdgeBetween(v, u) != nil {
						cands = append(cands, joingraph.TGEdge{I: min(u, v), J: max(u, v)})
					}
				}
			}
			if len(cands) == 0 {
				break
			}
			e := cands[rng.Intn(len(cands))]
			e.Variant = rng.Intn(len(g.EdgeBetween(e.I, e.J).Variants))
			next := e.I
			if in[next] {
				next = e.J
			}
			verts, in[next], edges = append(verts, next), true, append(edges, e)
		}
		first, last := g.Instances[verts[0]].Columnar.Schema(), g.Instances[verts[len(verts)-1]].Columnar.Schema()
		x := first.Column(rng.Intn(first.Len())).Name
		var ys []string
		for _, col := range last.Columns() {
			if col.IsCategorical() && col.Name != x {
				ys = append(ys, col.Name)
			}
		}
		if len(verts) < 2 || len(ys) == 0 {
			continue
		}
		y := ys[rng.Intn(len(ys))]
		tg, err := joingraph.NewTargetGraph(g, verts, edges, map[string]int{x: verts[0], y: verts[len(verts)-1]})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s→%s %s", x, y, tg)
		if seen[name] {
			continue
		}
		seen[name] = true
		req := Request{SourceAttrs: []string{x}, TargetAttrs: []string{y}, Seed: 7, ResampleRate: 0.3}
		out = append(out, oracleCase{name: name, tg: tg, req: req})
	}
	if len(out) < n {
		t.Fatalf("drew %d distinct target graphs, want %d", len(out), n)
	}
	return out
}

// Row-id join paths evaluate random TPC-H and TPC-E target graphs exactly
// as the gathered oracle does: the same joined rows read through the row
// ids, the same re-sampling stats and bit-identical metrics, at η ∈ {0,
// 150}, Workers ∈ {1, 2, 8}, with a scratch per goroutine and with none.
// Each configuration runs as a search does: Workers goroutines share one
// prefix memo, so every goroutine reads row-id prefixes the others
// published (run under -race in CI).
func TestRowIDPathsMatchGatheredOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	h := tpch.Generate(tpch.Config{Scale: 6, Seed: 1, DirtyFraction: 0.3})
	e := tpce.Generate(tpce.Config{Scale: 3, Seed: 1, DirtyFraction: 0.2})
	fixtures := []struct {
		g     *joingraph.Graph
		cases []oracleCase
	}{
		{g: sampledGraph(t, h.Tables, h.FDs, "")},
		{g: sampledGraph(t, e.Tables, e.FDs, "")},
	}
	etas := []int{0, 150}
	tripped := 0
	for fi := range fixtures {
		fx := &fixtures[fi]
		fx.cases = randomTargetGraphs(t, fx.g, 16, rng)
		s := NewSearcher(fx.g)
		for ci := range fx.cases {
			c := &fx.cases[ci]
			c.join, c.stats, c.m = map[int]*relation.Columnar{}, map[int]sampling.ResampleStats{}, map[int]Metrics{}
			for _, eta := range etas {
				r := c.req
				r.Eta = eta
				sc := s.newScope(r)
				steps, err := sc.joinSteps(c.tg, 1)
				if err != nil {
					t.Fatal(err)
				}
				c.join[eta], c.stats[eta] = gatheredPath(t, steps, sc.opts)
				if slices.Contains(c.stats[eta].Resampled, true) {
					tripped++
				}
				var m Metrics
				if err := m.measure(c.join[eta], sc.x, sc.y, c.tg.FDs(), nil); err != nil {
					t.Fatal(err)
				}
				c.m[eta] = m
			}
		}
	}
	if tripped < 4 {
		t.Fatalf("η = 150 re-samples %d paths: the cases barely cover re-sampling", tripped)
	}

	for _, fx := range fixtures {
		s := NewSearcher(fx.g)
		for _, eta := range etas {
			for _, workers := range []int{1, 2, 8} {
				for _, withScratch := range []bool{false, true} {
					what := fmt.Sprintf("η=%d workers=%d scratch=%v", eta, workers, withScratch)
					// One scope per request, as a search has; its prefix memo is
					// shared by all of the configuration's goroutines.
					scopes := map[string]*scope{}
					for _, c := range fx.cases {
						r := c.req
						r.Eta = eta
						if scopes[r.corrKey()] == nil {
							scopes[r.corrKey()] = s.newScope(r)
						}
					}
					errs := make([]error, workers)
					var wg sync.WaitGroup
					for w := 0; w < workers; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							var scr *relation.Scratch
							if withScratch {
								scr = relation.NewScratch(s.caches.schemas)
							}
							for k := range fx.cases {
								c := &fx.cases[(k+w)%len(fx.cases)] // each goroutine starts elsewhere
								if err := rowIDMatchesOracle(scopes[c.req.corrKey()], c, eta, workers, scr); err != nil {
									errs[w] = fmt.Errorf("%s %s: %w", what, c.name, err)
									return
								}
							}
						}(w)
					}
					wg.Wait()
					for _, err := range errs {
						if err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}
}

// rowIDMatchesOracle evaluates c's target graph on a row-id path in the
// search sc, the way evaluateUncached does, and compares it with the
// oracle's at η.
func rowIDMatchesOracle(sc *scope, c *oracleCase, eta, workers int, scr *relation.Scratch) error {
	steps, err := sc.joinSteps(c.tg, workers)
	if err != nil {
		return err
	}
	opts := sc.opts
	opts.Workers = workers
	j, stats, err := sampling.ResampledJoinPathColumnar(steps, opts, sc.prefixes, scr)
	if err != nil {
		return err
	}
	defer scr.Release(j)
	if _, ids := j.CodeCol(0).Parts(); ids == nil && j.NumRows() > 0 {
		return fmt.Errorf("the join is stored, not a row-id path")
	}
	if err := sameJoin(c.join[eta], j); err != nil {
		return err
	}
	want := c.stats[eta]
	// A prefix served by the memo skips its hops' stats: compare the tail.
	if off := len(want.IntermediateSizes) - len(stats.IntermediateSizes); off < 0 ||
		!slices.Equal(stats.IntermediateSizes, want.IntermediateSizes[off:]) || !slices.Equal(stats.Resampled, want.Resampled[off:]) {
		return fmt.Errorf("stats %+v, want a tail of %+v", stats, want)
	}
	var m Metrics
	if err := m.measure(j, sc.x, sc.y, c.tg.FDs(), scr); err != nil {
		return err
	}
	if m != c.m[eta] {
		return fmt.Errorf("metrics %+v, oracle %+v", m, c.m[eta])
	}
	return nil
}
