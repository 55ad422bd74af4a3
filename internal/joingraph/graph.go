// Package joingraph implements the paper's two-layer join graph (Sec 4).
//
// The instance layer (I-layer) has one vertex per marketplace instance and
// an I-edge between instances whose schemas share attributes. The attribute
// set layer (AS-layer) is, conceptually, one attribute-set lattice per
// instance with AS-edges between vertices of different instances that share
// attributes. Materializing 2^m − m − 1 lattice vertices per instance is
// infeasible for wide tables, so we exploit Property 4.1: every AS-edge
// weight depends only on (instance pair, join-attribute set). The graph
// therefore stores, per I-edge, one weighted *variant* per enumerated
// join-attribute subset, and never materializes the lattice (Def 4.1).
//
// All weights (join informativeness) are estimated from the correlated
// samples DANCE holds, per Sec 3. A graph is a function of the samples it
// was built over: a sample-rate escalation builds a new graph, estimating
// every weight afresh, and state derived from a graph (a search.Searcher's
// caches) names instances by vertex index and is dropped with it.
package joingraph

import (
	"context"
	"fmt"
	"sort"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/graphalg"
	"github.com/dance-db/dance/internal/infotheory"
	"github.com/dance-db/dance/internal/memo"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/safekey"
)

// Instance is one dataset registered in the join graph.
type Instance struct {
	// Name identifies the instance on the marketplace.
	Name string
	// Columnar is the dictionary-encoded correlated sample DANCE holds, and
	// the only form of it: join informativeness, the searcher and every
	// schema lookup read it. Build rejects an instance without one; the
	// offline sample store, the policies and owned-source registration
	// encode each sample once, when its rows arrive.
	Columnar *relation.Columnar
	// FullRows is the marketplace-reported cardinality of the full
	// instance (the sample is smaller).
	FullRows int
	// FDs are the approximate functional dependencies declared or
	// discovered for the instance; quality of join results is measured
	// against the union of participating instances' AFDs.
	FDs []fd.FD
	// Owned marks the data shopper's own source instance: it participates
	// in joins but costs nothing to "purchase".
	Owned bool
}

// PriceQuoter returns exact marketplace price quotes for projection queries.
// Query-based pricing means prices are queryable without buying (the
// AS-vertices of Def 4.2 carry prices). Quotes happen lazily during search,
// so the caller's context threads through: against a remote marketplace a
// cancelled search stops quoting mid-chain.
type PriceQuoter interface {
	QuoteProjection(ctx context.Context, instance string, attrs []string) (float64, error)
}

// Config controls join-graph construction.
type Config struct {
	// MaxJoinAttrs caps the size of join-attribute subsets enumerated per
	// I-edge. Complexity is exponential in the shared-attribute count
	// (Property 4.1), so wide overlaps are truncated. Default 3.
	MaxJoinAttrs int
	// Quoter supplies AS-vertex prices. Required for priced searches.
	Quoter PriceQuoter
}

// Variant is one choice of join-attribute set for an I-edge, with its
// estimated join informativeness (the AS-edge weight of Def 4.2).
type Variant struct {
	JoinAttrs []string // sorted
	JI        float64
}

// IEdge connects two instances whose schemas intersect.
type IEdge struct {
	I, J     int      // instance indexes, I < J
	Shared   []string // all shared attribute names, sorted
	Variants []Variant
	// MinJI is the I-edge weight: the minimum variant weight (Def 4.2).
	MinJI float64
	// minVariant indexes the variant achieving MinJI.
	minVariant int
}

// MinVariant returns the index of the lightest variant.
func (e *IEdge) MinVariant() int { return e.minVariant }

// Graph is the two-layer join graph.
type Graph struct {
	Instances []*Instance
	Edges     []*IEdge

	cfg        Config
	edgeByPair map[[2]int]int // instance pair → edge index

	// prices memoizes Price for every concurrent MCMC chain of the
	// parallel search engine.
	prices *memo.Memo[float64]
}

// maxPrices bounds a graph's price memo. Keys are (instance, attribute
// set) pairs the search prices, and attribute subsets of seller-chosen
// schemas are many; evicting a price only costs a re-quote.
const maxPrices = 1 << 12

// Build constructs the join graph from instances and estimates every
// variant weight from the samples. Every instance must carry its Columnar
// sample.
func Build(instances []*Instance, cfg Config) (*Graph, error) {
	if cfg.MaxJoinAttrs <= 0 {
		cfg.MaxJoinAttrs = 3
	}
	for _, inst := range instances {
		if inst.Columnar == nil {
			return nil, fmt.Errorf("joingraph: instance %q has no columnar sample", inst.Name)
		}
	}
	g := &Graph{
		Instances:  instances,
		cfg:        cfg,
		edgeByPair: make(map[[2]int]int),
		prices:     memo.New[float64](1, maxPrices),
	}
	for i := 0; i < len(instances); i++ {
		for j := i + 1; j < len(instances); j++ {
			shared := relation.SharedAttrs(instances[i].Columnar.Schema(), instances[j].Columnar.Schema())
			if len(shared) == 0 {
				continue
			}
			e := &IEdge{I: i, J: j, Shared: shared}
			for _, attrs := range enumerateSubsets(shared, cfg.MaxJoinAttrs) {
				ji, err := infotheory.JoinInformativeness(instances[i].Columnar, instances[j].Columnar, attrs)
				if err != nil {
					return nil, fmt.Errorf("joingraph: JI(%s, %s) on %v: %w",
						instances[i].Name, instances[j].Name, attrs, err)
				}
				e.Variants = append(e.Variants, Variant{JoinAttrs: attrs, JI: ji})
			}
			e.MinJI = e.Variants[0].JI
			for vi, v := range e.Variants {
				if v.JI < e.MinJI {
					e.MinJI = v.JI
					e.minVariant = vi
				}
			}
			g.edgeByPair[[2]int{i, j}] = len(g.Edges)
			g.Edges = append(g.Edges, e)
		}
	}
	return g, nil
}

// enumerateSubsets returns all non-empty subsets of attrs with size ≤ maxSize,
// each sorted, ordered by (size, lexicographic) for determinism.
func enumerateSubsets(attrs []string, maxSize int) [][]string {
	n := len(attrs)
	var out [][]string
	for mask := 1; mask < 1<<uint(n); mask++ {
		var sub []string
		for b := 0; b < n; b++ {
			if mask&(1<<uint(b)) != 0 {
				sub = append(sub, attrs[b])
			}
		}
		if len(sub) <= maxSize {
			out = append(out, sub)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// EdgeBetween returns the I-edge between instances i and j, or nil.
func (g *Graph) EdgeBetween(i, j int) *IEdge {
	if i > j {
		i, j = j, i
	}
	if ei, ok := g.edgeByPair[[2]int{i, j}]; ok {
		return g.Edges[ei]
	}
	return nil
}

// InstanceIndex returns the index of the named instance, or -1.
func (g *Graph) InstanceIndex(name string) int {
	for i, inst := range g.Instances {
		if inst.Name == name {
			return i
		}
	}
	return -1
}

// ILayerEdgeEpsilon is added to every I-edge weight in ILayer. Perfectly
// matched foreign-key joins have JI exactly 0, which would leave shortest
// paths arbitrary among 0-weight routes; the epsilon implements the paper's
// Sec 5 intuition that, all else equal, *longer join paths yield smaller
// correlation*, so hop count breaks ties.
const ILayerEdgeEpsilon = 1e-6

// ILayer exports the instance layer as a weighted graph for Step 1:
// vertices are instance indexes, edge weights are MinJI (plus the
// tie-breaking epsilon per edge).
func (g *Graph) ILayer() *graphalg.Graph {
	ig := graphalg.NewGraph(len(g.Instances))
	for _, e := range g.Edges {
		ig.AddEdge(e.I, e.J, e.MinJI+ILayerEdgeEpsilon)
	}
	return ig
}

// Price quotes the price of purchasing attrs from instance i, with caching.
// Owned instances are free.
func (g *Graph) Price(ctx context.Context, i int, attrs []string) (float64, error) {
	inst := g.Instances[i]
	if inst.Owned || len(attrs) == 0 {
		return 0, nil
	}
	if g.cfg.Quoter == nil {
		return 0, fmt.Errorf("joingraph: no price quoter configured")
	}
	// Listing and column names are seller text: length-prefixed parts keep
	// listing "x\x00a" pricing [b] apart from listing "x" pricing [a b].
	parts := append([]string{inst.Name}, attrs...)
	sorted := parts[1:]
	sort.Strings(sorted)
	key := safekey.Join(parts...)
	if p, ok := g.prices.Get(key); ok {
		return p, nil
	}
	p, err := g.cfg.Quoter.QuoteProjection(ctx, inst.Name, sorted)
	if err != nil {
		return 0, fmt.Errorf("joingraph: price quote for %s%v: %w", inst.Name, sorted, err)
	}
	g.prices.Put(key, p)
	return p, nil
}

// InstancesWithAttr returns the indexes of instances whose sample schema
// contains the attribute.
func (g *Graph) InstancesWithAttr(attr string) []int {
	var out []int
	for i, inst := range g.Instances {
		if inst.Columnar.Schema().Has(attr) {
			out = append(out, i)
		}
	}
	return out
}

// AllFDs returns the union of AFDs over the given instances, deduplicated.
func (g *Graph) AllFDs(instanceIdx []int) []fd.FD {
	seen := map[string]bool{}
	var out []fd.FD
	for _, i := range instanceIdx {
		for _, f := range g.Instances[i].FDs {
			s := f.String()
			if !seen[s] {
				seen[s] = true
				out = append(out, f)
			}
		}
	}
	return out
}
