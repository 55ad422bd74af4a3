package search

import (
	"fmt"
	"testing"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/joingraph"
	"github.com/dance-db/dance/internal/memo"
	"github.com/dance-db/dance/internal/pricing"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/sampling"
	"github.com/dance-db/dance/internal/tpce"
	"github.com/dance-db/dance/internal/tpch"
	"github.com/dance-db/dance/internal/workload"
)

// newOneEntrySearcher wraps g with every search memo bounded to a single
// entry, so nearly every lookup misses and every store evicts.
func newOneEntrySearcher(g *joingraph.Graph) *Searcher {
	s := NewSearcherWithCaches(g, &Caches{
		eval:     memo.New[Metrics](1, 1),
		views:    memo.New[owned[*relation.Columnar]](1, 1),
		joinIdx:  memo.New[owned[*relation.JoinIndex]](1, 1),
		prefixes: memo.NewCosted(1, 1, prefixCacheShardRowBudget, prefixEntryMaxRows, (*relation.Columnar).NumRows),
		schemas:  relation.NewSchemaMemo(1),
	})
	s.keeps = memo.New[*keepSet](1, 1)
	return s
}

// sampledGraph builds a join graph over correlated samples of tables, each
// sampled on its first column, priced by the entropy model.
func sampledGraph(t *testing.T, tables []*relation.Table, fds map[string][]fd.FD, owned string) *joingraph.Graph {
	t.Helper()
	byName := map[string]*relation.Table{}
	var insts []*joingraph.Instance
	for _, tab := range tables {
		s, err := sampling.CorrelatedSampleColumnar(relation.ToColumnar(tab), tab.Schema.Names()[:1], 0.6, sampling.NewHasher(5))
		if err != nil {
			t.Fatal(err)
		}
		byName[tab.Name] = tab
		insts = append(insts, &joingraph.Instance{Name: tab.Name, Columnar: s, FullRows: tab.NumRows(),
			FDs: fds[tab.Name], Owned: tab.Name == owned})
	}
	g, err := joingraph.Build(insts, joingraph.Config{
		Quoter: &testQuoter{model: pricing.Cached(pricing.DefaultEntropyModel()), tables: byName},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSearchMemosArePure pins that the search memos only ever save work:
// with every bound at one entry, Heuristic, TopK and GreedyAcquire find the
// same target graphs with bit-identical estimates and equal counters as
// with the default bounds, on TPC-E, on a generated star:4 marketplace and
// on TPC-H, whose multi-variant edges run the MCMC walk (with and without
// η re-sampling).
func TestSearchMemosArePure(t *testing.T) {
	type fixture struct {
		name string
		g    *joingraph.Graph
		reqs []Request
	}
	e := tpce.Generate(tpce.Config{Scale: 1, Seed: 1, DirtyFraction: 0.2})
	spec, err := workload.ParseSpec("star:4")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	req := func(x, y string) Request {
		return Request{SourceAttrs: []string{x}, TargetAttrs: []string{y}, Iterations: 40, Seed: 7, Workers: 2}
	}
	h := tpch.Generate(tpch.Config{Scale: 1, Seed: 1, DirtyFraction: 0.3})
	resampled := req("totalprice", "supplycost")
	resampled.Eta = 50
	fixtures := []fixture{
		{"tpce", sampledGraph(t, e.Tables, e.FDs, ""),
			[]Request{req("dmclose", "compname"), req("dmclose", "sectorname"), req("cabalance", "sectorname")}},
		{"star:4", sampledGraph(t, w.Listings, w.FDs, w.Base().Name),
			[]Request{req(w.Truth.X, w.Truth.Y)}},
		{"tpch", sampledGraph(t, h.Tables, h.FDs, ""), []Request{req("totalprice", "supplycost"), resampled}},
	}
	searches := []struct {
		name string
		run  func(*Searcher, Request) ([]*Result, error)
	}{
		{"heuristic", func(s *Searcher, r Request) ([]*Result, error) {
			res, err := s.Heuristic(bg, r)
			return []*Result{res}, err
		}},
		{"topk", func(s *Searcher, r Request) ([]*Result, error) {
			opts, err := s.TopK(bg, r, 3, DefaultScoreWeights())
			var out []*Result
			for _, o := range opts {
				out = append(out, o.Result)
			}
			return out, err
		}},
		{"greedy", func(s *Searcher, r Request) ([]*Result, error) {
			res, err := s.GreedyAcquire(bg, r)
			return []*Result{res}, err
		}},
	}
	for _, fx := range fixtures {
		for _, r := range fx.reqs {
			for _, sr := range searches {
				what := fmt.Sprintf("%s %s %v→%v", fx.name, sr.name, r.SourceAttrs, r.TargetAttrs)
				want, err := sr.run(NewSearcherWithCaches(fx.g, NewCaches()), r)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				got, err := sr.run(newOneEntrySearcher(fx.g), r)
				if err != nil {
					t.Fatalf("%s with one-entry memos: %v", what, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d results with one-entry memos, %d by default", what, len(got), len(want))
				}
				for i := range want {
					sameResult(t, fmt.Sprintf("%s result %d", what, i), want[i], got[i])
				}
			}
		}
	}
}
