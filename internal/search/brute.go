package search

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"

	"github.com/dance-db/dance/internal/joingraph"
)

// The limits that guard the exponential enumeration.
const (
	// maxBruteInstances refuses larger graphs: the paper's GP/LP do not
	// halt on TPC-E either.
	maxBruteInstances = 16
	// maxVariantCombos caps per-tree variant products.
	maxVariantCombos = 200000
)

// BruteForce is the LP/GP optimal baseline: it enumerates every connected
// instance subset that covers the source and target attributes, every
// spanning tree of each subset, and every join-attribute variant
// combination, evaluates each candidate, and returns the feasible target
// graph with maximum correlation. Run against a join graph built from
// samples this is the paper's LP; against full data it is GP.
func (s *Searcher) BruteForce(ctx context.Context, req Request) (*Result, error) {
	req = req.withDefaults()
	n := len(s.G.Instances)
	if n > maxBruteInstances {
		return nil, fmt.Errorf("search: brute force refused for %d instances (max %d)", n, maxBruteInstances)
	}
	sc := s.newScope(req)
	if sc.err != nil {
		return nil, sc.err
	}

	// Which instances hold each requested attribute. Source attributes
	// held by owned instances are pinned to them (the join is over S ∪ T).
	all := dedupe(append(append([]string{}, req.SourceAttrs...), req.TargetAttrs...))
	holders, err := s.holderMasks(all, req)
	if err != nil {
		return nil, err
	}

	var best bestFold
	evals := 0
	err = s.forEachTree(all, holders, func(verts []int, tree [][2]int, assign map[string]int) error {
		return s.walkVariants(ctx, verts, tree, assign, func(tg *joingraph.TargetGraph) error {
			// The search's one goroutine evaluates serially.
			m, err := sc.evaluate(ctx, tg, 0, 1)
			if err != nil {
				return err
			}
			evals++
			if m.Feasible(req) {
				best.add(tg, m)
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	if !best.found {
		return nil, fmt.Errorf("search: brute force found no feasible target graph: %w", ErrInfeasible)
	}
	return &Result{TG: best.tg, Est: best.m, Evals: evals, Considered: evals}, nil
}

// forEachTree calls fn for every candidate tree of the brute-force space:
// every spanning tree of every connected instance subset that covers each
// requested attribute (holders: per attribute, the instances that may
// provide it), with the subset's attribute assignment. Subsets whose
// attributes cannot be assigned are skipped.
func (s *Searcher) forEachTree(all []string, holders []uint32, fn func(verts []int, tree [][2]int, assign map[string]int) error) error {
	for mask := uint32(1); mask < 1<<uint(len(s.G.Instances)); mask++ {
		// Subset must cover every requested attribute.
		covered := true
		for _, h := range holders {
			if mask&h == 0 {
				covered = false
				break
			}
		}
		if !covered {
			continue
		}
		verts := maskVertices(mask)
		if !s.connectedSubset(verts) {
			continue
		}
		assign, err := s.G.AssignAttrs(all, verts)
		if err != nil {
			continue
		}
		for _, tree := range spanningTrees(verts, s.edgesWithin(mask)) {
			// A leaf that holds none of the requested attributes is a
			// useless appendage — the paper's LP/GP enumerate join paths
			// *between source and target vertices*, so such trees are not
			// candidates (the smaller tree is enumerated separately).
			if hasUselessLeaf(verts, tree, holders) {
				continue
			}
			if err := fn(verts, tree, assign); err != nil {
				return err
			}
		}
	}
	return nil
}

// holderMasks computes, per requested attribute, the bitmask of instances
// allowed to provide it: all holders for target attributes, owned holders
// only for source attributes held by any owned instance.
func (s *Searcher) holderMasks(attrs []string, req Request) ([]uint32, error) {
	isSource := map[string]bool{}
	for _, a := range req.SourceAttrs {
		isSource[a] = true
	}
	holders := make([]uint32, len(attrs))
	for ai, a := range attrs {
		candidates := s.G.InstancesWithAttr(a)
		if isSource[a] {
			var owned []int
			for _, i := range candidates {
				if s.G.Instances[i].Owned {
					owned = append(owned, i)
				}
			}
			if len(owned) > 0 {
				candidates = owned
			}
		}
		for _, i := range candidates {
			holders[ai] |= 1 << uint(i)
		}
		if holders[ai] == 0 {
			return nil, fmt.Errorf("search: attribute %q not offered by any instance: %w", a, ErrInvalidRequest)
		}
	}
	return holders, nil
}

// hasUselessLeaf reports whether some degree-1 vertex of the tree holds
// none of the requested attributes (holders are per-attribute vertex masks).
func hasUselessLeaf(verts []int, treeEdges [][2]int, holders []uint32) bool {
	if len(treeEdges) == 0 {
		return false
	}
	deg := map[int]int{}
	for _, e := range treeEdges {
		deg[e[0]]++
		deg[e[1]]++
	}
	for _, v := range verts {
		if deg[v] != 1 {
			continue
		}
		needed := false
		for _, h := range holders {
			if h&(1<<uint(v)) != 0 {
				needed = true
				break
			}
		}
		if !needed {
			return true
		}
	}
	return false
}

func maskVertices(mask uint32) []int {
	var out []int
	for mask != 0 {
		b := bits.TrailingZeros32(mask)
		out = append(out, b)
		mask &= mask - 1
	}
	return out
}

// connectedSubset reports whether the induced I-layer subgraph is connected.
func (s *Searcher) connectedSubset(verts []int) bool {
	if len(verts) <= 1 {
		return true
	}
	in := map[int]bool{}
	for _, v := range verts {
		in[v] = true
	}
	seen := map[int]bool{verts[0]: true}
	stack := []int{verts[0]}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range s.G.Edges {
			var nb = -1
			if e.I == v && in[e.J] {
				nb = e.J
			} else if e.J == v && in[e.I] {
				nb = e.I
			}
			if nb >= 0 && !seen[nb] {
				seen[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	return len(seen) == len(verts)
}

// edgesWithin lists join-graph edges with both endpoints inside the mask.
func (s *Searcher) edgesWithin(mask uint32) [][2]int {
	var out [][2]int
	for _, e := range s.G.Edges {
		if mask&(1<<uint(e.I)) != 0 && mask&(1<<uint(e.J)) != 0 {
			out = append(out, [2]int{e.I, e.J})
		}
	}
	return out
}

// spanningTrees enumerates all spanning trees of the subset as edge lists,
// by choosing |verts|−1 of the candidate edges and keeping acyclic choices
// (checked with union-find).
func spanningTrees(verts []int, edges [][2]int) [][][2]int {
	need := len(verts) - 1
	if need == 0 {
		return [][][2]int{nil}
	}
	if len(edges) < need {
		return nil
	}
	var out [][][2]int
	choice := make([][2]int, 0, need)
	var rec func(start int)
	rec = func(start int) {
		if len(choice) == need {
			if isSpanningTree(verts, choice) {
				out = append(out, append([][2]int(nil), choice...))
			}
			return
		}
		// Not enough edges left → prune.
		for i := start; i <= len(edges)-(need-len(choice)); i++ {
			choice = append(choice, edges[i])
			rec(i + 1)
			choice = choice[:len(choice)-1]
		}
	}
	rec(0)
	return out
}

func isSpanningTree(verts []int, edges [][2]int) bool {
	parent := map[int]int{}
	for _, v := range verts {
		parent[v] = v
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		ra, rb := find(e[0]), find(e[1])
		if ra == rb {
			return false // cycle
		}
		parent[ra] = rb
	}
	return true // |V|-1 acyclic edges over verts span them
}

// walkVariants calls visit with every target graph of the tree, one per
// combination of per-edge join-attribute variants. It refuses a tree whose
// combinations exceed maxVariantCombos before walking any, and checks ctx
// once per combination.
func (s *Searcher) walkVariants(ctx context.Context, verts []int, tree [][2]int, assign map[string]int,
	visit func(*joingraph.TargetGraph) error) error {

	counts := make([]int, len(tree))
	combos := 1
	for i, e := range tree {
		ie := s.G.EdgeBetween(e[0], e[1])
		if ie == nil {
			return fmt.Errorf("search: missing I-edge (%d,%d)", e[0], e[1])
		}
		counts[i] = len(ie.Variants)
		combos *= counts[i]
		if combos > maxVariantCombos {
			return fmt.Errorf("search: variant combinations exceed limit %d", maxVariantCombos)
		}
	}
	pick := make([]int, len(tree))
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		edges := make([]joingraph.TGEdge, len(tree))
		for i, e := range tree {
			a, b := e[0], e[1]
			if a > b {
				a, b = b, a
			}
			edges[i] = joingraph.TGEdge{I: a, J: b, Variant: pick[i]}
		}
		if tg, err := joingraph.NewTargetGraph(s.G, verts, edges, assign); err == nil {
			if err := visit(tg); err != nil {
				return err
			}
		}
		// Advance the odometer.
		i := 0
		for ; i < len(pick); i++ {
			pick[i]++
			if pick[i] < counts[i] {
				break
			}
			pick[i] = 0
		}
		if i == len(pick) {
			return nil
		}
	}
}

// ApproxPriceRange estimates the [LB, UB] price range of target graphs when
// full enumeration is infeasible (e.g. the 29-instance TPC-E graph): it takes
// the Step 1 candidate I-graphs and scans random variant assignments per
// tree. Used to define budget ratios on large marketplaces (Sec 6.1).
func (s *Searcher) ApproxPriceRange(ctx context.Context, req Request, samples int) (lb, ub float64, err error) {
	req = req.withDefaults()
	req.Alpha = 0 // price range ignores the weight constraint
	req.MaxIGraphs = 16
	if samples <= 0 {
		samples = 64
	}
	cands, err := s.step1Candidates(req)
	if err != nil {
		return 0, 0, err
	}
	rng := rand.New(rand.NewSource(req.Seed + 99))
	var span priceSpan
	for _, tr := range cands {
		tg, err := s.treeToTargetGraph(tr, req)
		if err != nil {
			continue
		}
		if err := span.addPrice(ctx, tg); err != nil {
			return 0, 0, err
		}
		for k := 0; k < samples; k++ {
			cand := tg.Clone()
			for ei := range cand.Edges {
				e := cand.Edges[ei]
				nv := len(s.G.EdgeBetween(e.I, e.J).Variants)
				cand.Edges[ei].Variant = rng.Intn(nv)
			}
			if err := span.addPrice(ctx, cand); err != nil {
				return 0, 0, err
			}
		}
		// Whole-instance purchases bound the upper end (see PriceRange).
		full, err := s.fullInstancesPrice(ctx, tg.Vertices)
		if err != nil {
			return 0, 0, err
		}
		span.raise(full)
	}
	if !span.found {
		return 0, 0, fmt.Errorf("search: no candidate target graphs for price range")
	}
	return span.lb, span.ub, nil
}

// PriceRange scans all feasible target graphs (ignoring budget) and returns
// the min and max price — the paper's LB/UB used to define budget ratios
// (Sec 6.1). It walks the brute-force enumeration with constraints relaxed.
func (s *Searcher) PriceRange(ctx context.Context, req Request) (lb, ub float64, err error) {
	relaxed := req
	relaxed.Budget = 0
	relaxed.Alpha = 0
	relaxed.Beta = 0
	relaxed = relaxed.withDefaults()
	n := len(s.G.Instances)
	if n > maxBruteInstances {
		return 0, 0, fmt.Errorf("search: price range refused for %d instances", n)
	}
	all := dedupe(append(append([]string{}, relaxed.SourceAttrs...), relaxed.TargetAttrs...))
	holders, err := s.holderMasks(all, relaxed)
	if err != nil {
		return 0, 0, err
	}
	var span priceSpan
	err = s.forEachTree(all, holders, func(verts []int, tree [][2]int, assign map[string]int) error {
		// Walk every variant combination: the paper's UB is the maximum
		// price over all possible paths, and variants change which join
		// attributes are purchased. Pricing is cached per (instance,
		// attribute set), so this is cheap.
		err := s.walkVariants(ctx, verts, tree, assign, func(tg *joingraph.TargetGraph) error {
			return span.addPrice(ctx, tg)
		})
		if err != nil {
			return err
		}
		// The marketplace also sells whole instances (the paper's
		// "Purchase D1 and D2" options); the price range's upper end
		// spans buying every attribute of each instance on the path.
		full, err := s.fullInstancesPrice(ctx, verts)
		if err != nil {
			return err
		}
		span.raise(full)
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	if !span.found {
		return 0, 0, fmt.Errorf("search: no target graph exists for price range")
	}
	return span.lb, span.ub, nil
}

// priceSpan folds target-graph prices into their [lb, ub] range, as
// bestFold folds correlations: empty until the first price is added.
type priceSpan struct {
	lb, ub float64
	found  bool
}

// addPrice widens the span to tg's price.
func (p *priceSpan) addPrice(ctx context.Context, tg *joingraph.TargetGraph) error {
	v, err := tg.Price(ctx)
	if err != nil {
		return err
	}
	if !p.found || v < p.lb {
		p.lb = v
	}
	if !p.found || v > p.ub {
		p.ub = v
	}
	p.found = true
	return nil
}

// raise lifts the upper end to v, a whole-instance purchase price. It
// leaves the span empty: the first target-graph price still sets both
// ends.
func (p *priceSpan) raise(v float64) {
	if v > p.ub {
		p.ub = v
	}
}

// fullInstancesPrice sums the whole-instance price over the given vertices
// (owned instances stay free).
func (s *Searcher) fullInstancesPrice(ctx context.Context, verts []int) (float64, error) {
	total := 0.0
	for _, v := range verts {
		inst := s.G.Instances[v]
		if inst.Owned {
			continue
		}
		p, err := s.G.Price(ctx, v, inst.Columnar.Schema().Names())
		if err != nil {
			return 0, err
		}
		total += p
	}
	return total, nil
}
