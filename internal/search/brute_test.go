package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/dance-db/dance/internal/tpch"
	"github.com/dance-db/dance/internal/workload"
)

// bruteFixtures are a sampled TPC-H graph and a generated star:4 graph with
// the requests the pinned brute-force values below were computed for.
func bruteFixtures(t *testing.T) []struct {
	name string
	s    *Searcher
	reqs []Request
} {
	t.Helper()
	h := tpch.Generate(tpch.Config{Scale: 1, Seed: 1, DirtyFraction: 0.3})
	spec, err := workload.ParseSpec("star:4")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	req := func(x, y string, eta int) Request {
		return Request{SourceAttrs: []string{x}, TargetAttrs: []string{y}, Seed: 7, Eta: eta, ResampleRate: 0.3}
	}
	return []struct {
		name string
		s    *Searcher
		reqs []Request
	}{
		{"tpch", NewSearcher(sampledGraph(t, h.Tables, h.FDs, "")), []Request{
			req("totalprice", "supplycost", 0), req("totalprice", "supplycost", 50), req("totalprice", "nname", 0)}},
		{"star:4", NewSearcher(sampledGraph(t, w.Listings, w.FDs, w.Base().Name)), []Request{
			req(w.Truth.X, w.Truth.Y, 0), req(w.Truth.X, w.Truth.Y, 50)}},
	}
}

// TestBruteForcePinned pins PriceRange's (lb, ub) and BruteForce's target
// graph, evaluation count and estimates bit for bit, as the enumeration
// computed them before PriceRange shared it.
func TestBruteForcePinned(t *testing.T) {
	want := []string{
		`lb=0x4059d62b820200fe ub=0x406cf72ca989aa4a tg="2-3#2;2-7#0;3-6#0;5-7#0;2,3,5,6,7,\"supplycost\"=5;\"totalprice\"=6;" evals=25 est=0x3fd21155fcab1685/0x3fcb26c9b26c9b27/0x3ff1c518da4e2a6a/0x4064108a078db7d4`,
		`lb=0x4059d62b820200fe ub=0x406cf72ca989aa4a tg="2-3#1;2-7#0;3-6#0;5-7#2;2,3,5,6,7,\"supplycost\"=5;\"totalprice\"=6;" evals=25 est=0x3fde84edab279ab8/0x3fe1745d1745d174/0x3ff4c9258163860a/0x4064008a078db7d4`,
		`lb=0x40550ae29f7ad4fc ub=0x406cf72ca989aa4a tg="1-2#0;2-3#2;3-6#0;1,2,3,6,\"nname\"=1;\"totalprice\"=6;" evals=24 est=0x3fdf8c1234d471ff/0x3ff0000000000000/0x3ff2e4db38a32763/0x40584a5f461b4908`,
		`lb=0x404beeb7380af88c ub=0x405cceb7380af88c tg="0-1#0;1-2#0;0,1,2,\"x\"=0;\"y\"=2;" evals=4 est=0x3fd69d5d48b9a3a0/0x3ff0000000000000/0x3fd3333333333333/0x404beeb7380af88c`,
		`lb=0x404beeb7380af88c ub=0x405cceb7380af88c tg="0-6#0;1-2#0;1-6#0;0,1,2,6,\"x\"=0;\"y\"=2;" evals=4 est=0x3fdc2269e5d1cd63/0x3ff0000000000000/0x3fd3333333333333/0x4054d3096a083a69`,
	}
	i := 0
	for _, fx := range bruteFixtures(t) {
		for _, req := range fx.reqs {
			lb, ub, err := fx.s.PriceRange(bg, req)
			if err != nil {
				t.Fatal(err)
			}
			res, err := fx.s.BruteForce(bg, req)
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("lb=%#x ub=%#x tg=%q evals=%d est=%#x/%#x/%#x/%#x",
				math.Float64bits(lb), math.Float64bits(ub), fingerprint(res.TG), res.Evals,
				math.Float64bits(res.Est.Correlation), math.Float64bits(res.Est.Quality),
				math.Float64bits(res.Est.Weight), math.Float64bits(res.Est.Price))
			if got != want[i] {
				t.Errorf("%s %v→%v η=%d:\n got %s\nwant %s", fx.name, req.SourceAttrs, req.TargetAttrs, req.Eta, got, want[i])
			}
			i++
		}
	}
}

// A cancelled context stops PriceRange even once every price it reads is
// memoized and no pricing call reaches the context.
func TestPriceRangeCancelledOnWarmGraph(t *testing.T) {
	fx := bruteFixtures(t)[0]
	req := fx.reqs[0]
	if _, _, err := fx.s.PriceRange(bg, req); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, _, err := fx.s.PriceRange(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("PriceRange on a warm graph with a cancelled context: err = %v, want %v", err, context.Canceled)
	}
}
