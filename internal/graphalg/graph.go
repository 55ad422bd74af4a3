// Package graphalg provides the graph machinery behind DANCE's Step 1
// (Sec 5.1): weighted undirected graphs, Dijkstra shortest paths, random
// landmarks with precomputed shortest-path trees (after Gubichev et al., the
// paper's [10]), and three Steiner-tree strategies — the paper's
// landmark-union heuristic, the classic MST 2-approximation (Vazirani, the
// paper's [29]), and exact Dreyfus–Wagner dynamic programming used by the
// brute-force baselines and tests.
package graphalg

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Graph is a weighted undirected graph over vertices 0..N-1. Parallel edges
// collapse to the minimum weight.
type Graph struct {
	n      int
	adj    [][]int // neighbor lists
	weight map[[2]int]float64
}

// NewGraph returns an empty graph with n vertices.
func NewGraph(n int) *Graph {
	return &Graph{n: n, adj: make([][]int, n), weight: make(map[[2]int]float64)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

func edgeKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// AddEdge inserts an undirected edge. Re-adding an edge keeps the smaller
// weight. Self-loops are rejected.
func (g *Graph) AddEdge(u, v int, w float64) {
	if u == v {
		panic(fmt.Sprintf("graphalg: self-loop at %d", u))
	}
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		panic(fmt.Sprintf("graphalg: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	k := edgeKey(u, v)
	if old, ok := g.weight[k]; ok {
		if w < old {
			g.weight[k] = w
		}
		return
	}
	g.weight[k] = w
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
}

// Weight returns the weight of edge (u, v); it panics if absent.
func (g *Graph) Weight(u, v int) float64 {
	w, ok := g.weight[edgeKey(u, v)]
	if !ok {
		panic(fmt.Sprintf("graphalg: no edge (%d,%d)", u, v))
	}
	return w
}

// Edges returns all undirected edges sorted lexicographically.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, len(g.weight))
	for k := range g.weight {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	v    int
	dist float64
}

type pq []pqItem

func (p pq) Len() int            { return len(p) }
func (p pq) Less(i, j int) bool  { return p[i].dist < p[j].dist }
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() interface{} {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}

// Dijkstra computes single-source shortest paths from src. dist is +Inf for
// unreachable vertices; parent is -1 at src and at unreachable vertices.
func (g *Graph) Dijkstra(src int) (dist []float64, parent []int) {
	dist = make([]float64, g.n)
	parent = make([]int, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	dist[src] = 0
	q := &pq{{v: src, dist: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.dist > dist[it.v] {
			continue // stale entry
		}
		for _, nb := range g.adj[it.v] {
			nd := it.dist + g.Weight(it.v, nb)
			if nd < dist[nb] {
				dist[nb] = nd
				parent[nb] = it.v
				heap.Push(q, pqItem{v: nb, dist: nd})
			}
		}
	}
	return dist, parent
}

// PathFromParents reconstructs the path src→v from a parent array produced
// by Dijkstra(src). Returns nil if v is unreachable.
func PathFromParents(parent []int, src, v int) []int {
	if v == src {
		return []int{src}
	}
	if parent[v] == -1 {
		return nil
	}
	var rev []int
	for cur := v; cur != -1; cur = parent[cur] {
		rev = append(rev, cur)
		if cur == src {
			break
		}
	}
	if rev[len(rev)-1] != src {
		return nil
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Landmarks holds precomputed shortest-path trees from randomly chosen
// landmark vertices (the offline sketch of Gubichev et al.).
type Landmarks struct {
	IDs     []int
	dist    [][]float64
	parents [][]int
}

// BuildLandmarks picks min(k, N) distinct random landmarks and runs Dijkstra
// from each. rng may be nil for a fixed default.
func (g *Graph) BuildLandmarks(k int, rng *rand.Rand) *Landmarks {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	if k > g.n {
		k = g.n
	}
	perm := rng.Perm(g.n)[:k]
	sort.Ints(perm)
	lm := &Landmarks{IDs: perm}
	for _, v := range perm {
		d, p := g.Dijkstra(v)
		lm.dist = append(lm.dist, d)
		lm.parents = append(lm.parents, p)
	}
	return lm
}
