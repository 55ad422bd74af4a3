package joingraph

import (
	"context"
	"fmt"
	"sort"

	"github.com/dance-db/dance/internal/fd"
)

// TGEdge is a tree edge of a target graph: the I-edge between instances
// I and J (I < J) with a chosen join-attribute variant.
type TGEdge struct {
	I, J    int
	Variant int
}

// JoinAttrsOf resolves the chosen variant's join attributes via the graph.
func (e TGEdge) JoinAttrsOf(g *Graph) []string {
	return g.EdgeBetween(e.I, e.J).Variants[e.Variant].JoinAttrs
}

// TargetGraph is a candidate acquisition (Def 4.4): a connected subtree of
// the I-layer whose vertices cover the source and target attributes, with a
// concrete join-attribute variant chosen per edge — i.e. a set of AS-layer
// vertices and AS-edges.
type TargetGraph struct {
	G        *Graph
	Vertices []int    // sorted instance indexes in the tree
	Edges    []TGEdge // tree edges (|Vertices| − 1 of them when connected)
	// Assign maps every requested (source ∪ target) attribute to the
	// instance that provides it.
	Assign map[string]int
}

// NewTargetGraph validates and builds a target graph over the given tree.
func NewTargetGraph(g *Graph, vertices []int, edges []TGEdge, assign map[string]int) (*TargetGraph, error) {
	vs := append([]int(nil), vertices...)
	sort.Ints(vs)
	inTree := map[int]bool{}
	for _, v := range vs {
		if v < 0 || v >= len(g.Instances) {
			return nil, fmt.Errorf("joingraph: vertex %d out of range", v)
		}
		inTree[v] = true
	}
	for _, e := range edges {
		if e.I >= e.J {
			return nil, fmt.Errorf("joingraph: edge (%d,%d) not normalized", e.I, e.J)
		}
		if !inTree[e.I] || !inTree[e.J] {
			return nil, fmt.Errorf("joingraph: edge (%d,%d) references vertex outside tree", e.I, e.J)
		}
		ie := g.EdgeBetween(e.I, e.J)
		if ie == nil {
			return nil, fmt.Errorf("joingraph: no I-edge between %d and %d", e.I, e.J)
		}
		if e.Variant < 0 || e.Variant >= len(ie.Variants) {
			return nil, fmt.Errorf("joingraph: edge (%d,%d) variant %d out of range", e.I, e.J, e.Variant)
		}
	}
	for a, v := range assign {
		if !inTree[v] {
			return nil, fmt.Errorf("joingraph: attribute %q assigned to vertex %d outside tree", a, v)
		}
		if !g.Instances[v].Columnar.Schema().Has(a) {
			return nil, fmt.Errorf("joingraph: instance %s lacks assigned attribute %q", g.Instances[v].Name, a)
		}
	}
	tg := &TargetGraph{G: g, Vertices: vs, Edges: append([]TGEdge(nil), edges...), Assign: assign}
	if !tg.connected() {
		return nil, fmt.Errorf("joingraph: target graph is not connected")
	}
	return tg, nil
}

func (tg *TargetGraph) connected() bool {
	if len(tg.Vertices) <= 1 {
		return true
	}
	adj := map[int][]int{}
	for _, e := range tg.Edges {
		adj[e.I] = append(adj[e.I], e.J)
		adj[e.J] = append(adj[e.J], e.I)
	}
	seen := map[int]bool{tg.Vertices[0]: true}
	stack := []int{tg.Vertices[0]}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range adj[v] {
			if !seen[nb] {
				seen[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	for _, v := range tg.Vertices {
		if !seen[v] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy (sharing the underlying Graph).
func (tg *TargetGraph) Clone() *TargetGraph {
	assign := make(map[string]int, len(tg.Assign))
	for k, v := range tg.Assign {
		assign[k] = v
	}
	return &TargetGraph{
		G:        tg.G,
		Vertices: append([]int(nil), tg.Vertices...),
		Edges:    append([]TGEdge(nil), tg.Edges...),
		Assign:   assign,
	}
}

// variant returns the chosen Variant of edge e.
func (tg *TargetGraph) variant(e TGEdge) Variant {
	return tg.G.EdgeBetween(e.I, e.J).Variants[e.Variant]
}

// Weight returns w(TG): the sum of chosen AS-edge weights (estimated join
// informativeness along the tree).
func (tg *TargetGraph) Weight() float64 {
	w := 0.0
	for _, e := range tg.Edges {
		w += tg.variant(e).JI
	}
	return w
}

// Purchase returns, per non-owned instance, the sorted attribute set to buy:
// the join attributes of incident edges plus the requested attributes
// assigned to that instance. This is the AS-vertex set of the acquisition.
func (tg *TargetGraph) Purchase() map[int][]string {
	sets := map[int]map[string]bool{}
	add := func(v int, attrs ...string) {
		if tg.G.Instances[v].Owned {
			return
		}
		if sets[v] == nil {
			sets[v] = map[string]bool{}
		}
		for _, a := range attrs {
			sets[v][a] = true
		}
	}
	for _, e := range tg.Edges {
		attrs := tg.variant(e).JoinAttrs
		add(e.I, attrs...)
		add(e.J, attrs...)
	}
	for a, v := range tg.Assign {
		add(v, a)
	}
	out := make(map[int][]string, len(sets))
	for v, set := range sets {
		attrs := make([]string, 0, len(set))
		for a := range set {
			attrs = append(attrs, a)
		}
		sort.Strings(attrs)
		out[v] = attrs
	}
	return out
}

// Price returns p(TG): the summed marketplace quotes for all purchase sets.
func (tg *TargetGraph) Price(ctx context.Context) (float64, error) {
	total := 0.0
	purchase := tg.Purchase()
	// Deterministic order for error reproducibility.
	idxs := make([]int, 0, len(purchase))
	for v := range purchase {
		idxs = append(idxs, v)
	}
	sort.Ints(idxs)
	for _, v := range idxs {
		p, err := tg.G.Price(ctx, v, purchase[v])
		if err != nil {
			return 0, err
		}
		total += p
	}
	return total, nil
}

// JoinHop is one hop of a linearized join plan: join instance Vertex into
// the accumulated result on attributes On (empty for the first hop).
type JoinHop struct {
	Vertex int
	On     []string
}

// JoinPlan linearizes the tree into a join order over instance indexes: a
// BFS from the lowest vertex, each hop joining the next instance on its
// chosen edge variant's attributes. Search resolves the plan to the
// instance samples, plan records to instance names.
func (tg *TargetGraph) JoinPlan() ([]JoinHop, error) {
	if len(tg.Vertices) == 0 {
		return nil, fmt.Errorf("joingraph: empty target graph")
	}
	type nb struct {
		to   int
		edge TGEdge
	}
	adj := map[int][]nb{}
	for _, e := range tg.Edges {
		adj[e.I] = append(adj[e.I], nb{to: e.J, edge: e})
		adj[e.J] = append(adj[e.J], nb{to: e.I, edge: e})
	}
	for v := range adj {
		sort.Slice(adj[v], func(i, j int) bool { return adj[v][i].to < adj[v][j].to })
	}
	root := tg.Vertices[0]
	hops := []JoinHop{{Vertex: root}}
	seen := map[int]bool{root: true}
	queue := []int{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, n := range adj[v] {
			if seen[n.to] {
				continue
			}
			seen[n.to] = true
			queue = append(queue, n.to)
			hops = append(hops, JoinHop{Vertex: n.to, On: tg.variant(n.edge).JoinAttrs})
		}
	}
	if len(hops) != len(tg.Vertices) {
		return nil, fmt.Errorf("joingraph: target graph not connected (%d of %d vertices reached)",
			len(hops), len(tg.Vertices))
	}
	return hops, nil
}

// FDs returns the AFD set relevant to this target graph: the union of the
// participating instances' AFDs (quality of the join result is measured
// against them, Def 2.3).
func (tg *TargetGraph) FDs() []fd.FD {
	return tg.G.AllFDs(tg.Vertices)
}

// String renders a compact description for logs and experiment output.
func (tg *TargetGraph) String() string {
	s := "TG{"
	for i, v := range tg.Vertices {
		if i > 0 {
			s += ","
		}
		s += tg.G.Instances[v].Name
	}
	s += "}["
	for i, e := range tg.Edges {
		if i > 0 {
			s += " "
		}
		v := tg.variant(e)
		s += fmt.Sprintf("%s-%s on %v", tg.G.Instances[e.I].Name, tg.G.Instances[e.J].Name, v.JoinAttrs)
	}
	return s + "]"
}
