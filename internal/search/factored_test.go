package search

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/joingraph"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/sampling"
	"github.com/dance-db/dance/internal/tpce"
	"github.com/dance-db/dance/internal/tpch"
)

// nationkeyOnlyCase is the TPC-H join tree customer ⋈ supplier on
// nationkey alone. Both instances carry h_key, so the path renames the
// second hop's to h_key_r, and an FD naming h_key reads the root's: the
// second hop's own FD on h_key spans two hops.
func nationkeyOnlyCase(t *testing.T, g *joingraph.Graph) oracleCase {
	t.Helper()
	cust, supp := -1, -1
	for i, inst := range g.Instances {
		switch inst.Name {
		case "customer":
			cust = i
		case "supplier":
			supp = i
		}
	}
	e := g.EdgeBetween(cust, supp)
	if e == nil {
		t.Fatal("no customer–supplier edge")
	}
	variant := slices.IndexFunc(e.Variants, func(v joingraph.Variant) bool {
		return slices.Equal(v.JoinAttrs, []string{"nationkey"})
	})
	if variant < 0 {
		t.Fatal("no customer–supplier variant on nationkey alone")
	}
	tg, err := joingraph.NewTargetGraph(g, []int{cust, supp},
		[]joingraph.TGEdge{{I: min(cust, supp), J: max(cust, supp), Variant: variant}},
		map[string]int{"cacctbal": cust, "sname": supp})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{SourceAttrs: []string{"cacctbal"}, TargetAttrs: []string{"sname"}, Seed: 7, ResampleRate: 0.3}
	return oracleCase{name: "customer⋈supplier on nationkey", tg: tg, req: req}
}

// factoredTally counts how the FDs of the evaluated paths were decided.
type factoredTally struct {
	mu                         sync.Mutex
	anchored, refined, holding int
}

// Factorized quality is the path kernel's quality, bit for bit: on random
// TPC-H and TPC-E join trees with random edge variants, at η ∈ {0, 40,
// 150} and Workers ∈ {1, 2, 8}, with a scratch per goroutine and with none,
// the evaluator's quality of each row-id path equals fd.QualitySetColumnar
// on that same path. Every configuration's goroutines share the Searcher's
// FD plans and refinements (run under -race in CI), which are built by
// whichever evaluation first reaches them. On the tree where customer and
// supplier join on nationkey alone, an FD naming h_key that spans two hops
// falls back to the path kernel.
func TestFactoredQualityMatchesPathKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	h := tpch.Generate(tpch.Config{Scale: 6, Seed: 1, DirtyFraction: 0.3})
	e := tpce.Generate(tpce.Config{Scale: 3, Seed: 1, DirtyFraction: 0.2})
	hg := sampledGraph(t, h.Tables, h.FDs, "")
	eg := sampledGraph(t, e.Tables, e.FDs, "")
	renamed := nationkeyOnlyCase(t, hg)
	fixtures := []struct {
		g     *joingraph.Graph
		cases []oracleCase
	}{
		{g: hg, cases: append(randomTargetGraphs(t, hg, 16, rng), renamed)},
		{g: eg, cases: randomTargetGraphs(t, eg, 16, rng)},
	}
	var tally factoredTally
	for _, fx := range fixtures {
		s := NewSearcher(fx.g)
		for _, eta := range []int{0, 40, 150} {
			for _, workers := range []int{1, 2, 8} {
				for _, withScratch := range []bool{false, true} {
					what := fmt.Sprintf("η=%d workers=%d scratch=%v", eta, workers, withScratch)
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
								c := &fx.cases[(k+w)%len(fx.cases)]
								if err := factoredMatchesPathKernel(scopes[c.req.corrKey()], c, workers, scr, &tally); err != nil {
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
	t.Logf("anchored FD evaluations %d: refined %d, holding exactly %d", tally.anchored, tally.refined, tally.holding)
	if tally.refined == 0 || tally.holding == 0 {
		t.Fatal("the cases never evaluate an FD through a refinement, or never skip an exact one")
	}

	// The renamed tree: the root hop's h_key keeps its name, so the other
	// hop's FD on h_key reads it through the root's vector and its LHS
	// through its own. It spans two hops and stays with the path kernel.
	s := NewSearcher(hg)
	sc := s.newScope(renamed.req)
	steps, err := sc.joinSteps(renamed.tg, 1)
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := sampling.ResampledJoinPathColumnar(steps, sc.opts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !j.Schema().Has("h_key_r") {
		t.Fatalf("the path %s does not rename the second h_key", j.Schema())
	}
	plan := sc.fdPlanOf(steps, j, renamed.tg)
	anchored := map[string]bool{}
	for _, a := range plan.anchors {
		anchored[a.f.String()] = true
	}
	spanning := 0
	for _, f := range fd.Applicable(renamed.tg.FDs(), j.Schema()) {
		if !slices.Contains(f.Attrs(), "h_key") {
			continue
		}
		vecs := map[int]bool{}
		for _, a := range f.Attrs() {
			v, _ := j.Origin(j.Schema().Index(a))
			vecs[v] = true
		}
		if len(vecs) > 1 {
			spanning++
			if anchored[f.String()] {
				t.Fatalf("%s reads two hops' vectors but is anchored", f)
			}
		}
	}
	if spanning == 0 || len(plan.anchors) == 0 {
		t.Fatalf("the plan anchors %d FDs and has %d FDs on h_key spanning two hops; want both > 0", len(plan.anchors), spanning)
	}
}

// factoredMatchesPathKernel joins c's target graph in the search sc, as
// evaluateUncached does, and compares the factorized quality of the path
// with the path kernel's.
func factoredMatchesPathKernel(sc *scope, c *oracleCase, workers int, scr *relation.Scratch, tally *factoredTally) error {
	steps, err := sc.joinSteps(c.tg, workers)
	if err != nil {
		return err
	}
	opts := sc.opts
	opts.Workers = workers
	j, _, err := sampling.ResampledJoinPathColumnar(steps, opts, sc.prefixes, scr)
	if err != nil {
		return err
	}
	defer scr.Release(j)
	if j.NumRows() == 0 {
		return nil
	}
	want, err := fd.QualitySetColumnar(j, c.tg.FDs(), nil)
	if err != nil {
		return err
	}
	got, err := sc.quality(j, steps, c.tg, scr)
	if err != nil {
		return err
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("factorized quality %v, path kernel %v", got, want)
	}
	plan := sc.fdPlanOf(steps, j, c.tg)
	tally.mu.Lock()
	defer tally.mu.Unlock()
	for _, a := range plan.anchors {
		tally.anchored++
		if ref, ok := sc.s.caches.refines.Get(a.key); ok {
			switch {
			case ref.Holds():
				tally.holding++
			case ref.Factored():
				tally.refined++
			}
		}
	}
	return nil
}

// A refinement is first built by an evaluation whose path has at least as
// many rows as the anchor's view, of a view the memo can keep; a smaller
// path, or a larger view, leaves it to the path kernel and stores nothing.
func TestRefinementBuiltOnlyFromFullPaths(t *testing.T) {
	h := tpch.Generate(tpch.Config{Scale: 1, Seed: 1, DirtyFraction: 0.3})
	g := sampledGraph(t, h.Tables, h.FDs, "")
	c := nationkeyOnlyCase(t, g)
	s := NewSearcher(g)
	sc := s.newScope(c.req)
	steps, err := sc.joinSteps(c.tg, 1)
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := sampling.ResampledJoinPathColumnar(steps, sc.opts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := sc.fdPlanOf(steps, j, c.tg)
	if len(plan.anchors) == 0 {
		t.Fatal("no FD is anchored")
	}
	a := &plan.anchors[0]
	view := steps[a.hop].C
	if ref := s.refinementOf(a, view, view.NumRows()-1, nil); ref != nil || s.caches.refines.Len() != 0 {
		t.Fatalf("a path one row short of the view built a refinement (%d stored)", s.caches.refines.Len())
	}
	if ref := s.refinementOf(a, view, view.NumRows(), nil); ref == nil || s.caches.refines.Len() != 1 {
		t.Fatalf("a path as long as the view built no refinement (%d stored)", s.caches.refines.Len())
	}
	if ref := s.refinementOf(a, view, 0, nil); ref == nil {
		t.Fatal("a stored refinement is not served to a shorter path")
	}

	// A view past the memo's largest refinement is never refined: nothing
	// could keep the refinement, so every evaluation would build it again.
	s.caches.refines = newRefineMemo(1, refineShardCap, view.NumRows()-1)
	if ref := s.refinementOf(a, view, view.NumRows(), nil); ref != nil || s.caches.refines.Len() != 0 {
		t.Fatalf("a view past the memo's cap was refined (%d stored)", s.caches.refines.Len())
	}
}
