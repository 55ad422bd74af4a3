package graphalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// lineGraph: 0 - 1 - 2 - ... - (n-1), unit weights.
func lineGraph(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	return g
}

// diamond builds
//
//	  1
//	 / \
//	0   3 --- 4
//	 \ /
//	  2
//
// with 0-1-3 cheap (0.5 each) and 0-2-3 expensive (2 each).
func diamond() *Graph {
	g := NewGraph(5)
	g.AddEdge(0, 1, 0.5)
	g.AddEdge(1, 3, 0.5)
	g.AddEdge(0, 2, 2)
	g.AddEdge(2, 3, 2)
	g.AddEdge(3, 4, 1)
	return g
}

func TestAddEdgeAndAccessors(t *testing.T) {
	g := diamond()
	if g.N() != 5 || len(g.Edges()) != 5 {
		t.Fatalf("N=%d edges=%v", g.N(), g.Edges())
	}
	if _, ok := g.weight[edgeKey(1, 0)]; !ok {
		t.Fatal("edge (1,0) missing")
	}
	if _, ok := g.weight[edgeKey(0, 4)]; ok {
		t.Fatal("edge (0,4) present")
	}
	if g.Weight(3, 1) != 0.5 {
		t.Fatalf("Weight(3,1) = %v", g.Weight(3, 1))
	}
	// Parallel edge keeps minimum.
	g.AddEdge(0, 1, 0.1)
	if g.Weight(0, 1) != 0.1 {
		t.Fatalf("parallel edge weight = %v, want 0.1", g.Weight(0, 1))
	}
	g.AddEdge(0, 1, 5)
	if g.Weight(0, 1) != 0.1 {
		t.Fatal("heavier parallel edge must not overwrite")
	}
	if len(g.Edges()) != 5 {
		t.Fatalf("parallel edges must collapse: Edges() = %v", g.Edges())
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self loop should panic")
		}
	}()
	NewGraph(2).AddEdge(1, 1, 1)
}

func TestDijkstraLine(t *testing.T) {
	g := lineGraph(6)
	dist, parent := g.Dijkstra(0)
	for i := 0; i < 6; i++ {
		if dist[i] != float64(i) {
			t.Fatalf("dist[%d] = %v", i, dist[i])
		}
	}
	path := PathFromParents(parent, 0, 5)
	if len(path) != 6 || path[0] != 0 || path[5] != 5 {
		t.Fatalf("path = %v", path)
	}
}

func TestDijkstraPicksCheapSide(t *testing.T) {
	g := diamond()
	dist, parent := g.Dijkstra(0)
	if dist[3] != 1.0 {
		t.Fatalf("dist[3] = %v, want 1 (via vertex 1)", dist[3])
	}
	path := PathFromParents(parent, 0, 3)
	if len(path) != 3 || path[1] != 1 {
		t.Fatalf("path = %v, want [0 1 3]", path)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 1)
	dist, parent := g.Dijkstra(0)
	if !math.IsInf(dist[2], 1) {
		t.Fatalf("dist[2] = %v, want +Inf", dist[2])
	}
	if PathFromParents(parent, 0, 2) != nil {
		t.Fatal("path to unreachable vertex should be nil")
	}
}

func TestPathFromParentsSelf(t *testing.T) {
	g := lineGraph(3)
	_, parent := g.Dijkstra(1)
	path := PathFromParents(parent, 1, 1)
	if len(path) != 1 || path[0] != 1 {
		t.Fatalf("self path = %v", path)
	}
}

func TestBuildLandmarksCapsAtN(t *testing.T) {
	g := lineGraph(4)
	lm := g.BuildLandmarks(100, nil)
	if len(lm.IDs) != 4 {
		t.Fatalf("landmarks = %d, want 4", len(lm.IDs))
	}
}

func randomConnectedGraph(n, extraEdges int, rng *rand.Rand) *Graph {
	g := NewGraph(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(perm[i], perm[rng.Intn(i)], 0.1+rng.Float64())
	}
	for i := 0; i < extraEdges; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, 0.1+rng.Float64())
		}
	}
	return g
}

func terminalsIn(tr *SteinerTree, terminals []int) bool {
	have := map[int]bool{}
	for _, v := range tr.Vertices {
		have[v] = true
	}
	for _, t := range terminals {
		if !have[t] {
			return false
		}
	}
	return true
}

// connected verifies the tree's edge set connects all its terminals.
func connectedTree(tr *SteinerTree, terminals []int) bool {
	if len(terminals) <= 1 {
		return true
	}
	adj := map[int][]int{}
	for _, e := range tr.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	seen := map[int]bool{terminals[0]: true}
	stack := []int{terminals[0]}
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
	for _, t := range terminals {
		if !seen[t] {
			return false
		}
	}
	return true
}

func TestSteinerExactDiamond(t *testing.T) {
	g := diamond()
	tr, ok := g.SteinerExact([]int{0, 4})
	if !ok {
		t.Fatal("no tree found")
	}
	if math.Abs(tr.Weight-2.0) > 1e-9 { // 0-1-3-4 = 0.5+0.5+1
		t.Fatalf("weight = %v, want 2", tr.Weight)
	}
	if !connectedTree(tr, []int{0, 4}) {
		t.Fatal("tree does not connect terminals")
	}
}

func TestSteinerExactThreeTerminals(t *testing.T) {
	// Star: center 0, spokes 1,2,3 with weight 1 each; direct expensive
	// edges between spokes weight 3.
	g := NewGraph(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(0, 3, 1)
	g.AddEdge(1, 2, 3)
	g.AddEdge(2, 3, 3)
	tr, ok := g.SteinerExact([]int{1, 2, 3})
	if !ok {
		t.Fatal("no tree")
	}
	if math.Abs(tr.Weight-3.0) > 1e-9 {
		t.Fatalf("weight = %v, want 3 (via Steiner vertex 0)", tr.Weight)
	}
}

func TestSteinerSingleTerminal(t *testing.T) {
	g := diamond()
	for _, f := range []func([]int) (*SteinerTree, bool){g.SteinerExact, g.SteinerMSTApprox} {
		tr, ok := f([]int{2})
		if !ok || len(tr.Vertices) != 1 || tr.Weight != 0 {
			t.Fatalf("single-terminal tree = %+v, %v", tr, ok)
		}
	}
}

func TestSteinerDisconnected(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	if _, ok := g.SteinerExact([]int{0, 2}); ok {
		t.Fatal("exact should fail on disconnected terminals")
	}
	if _, ok := g.SteinerMSTApprox([]int{0, 2}); ok {
		t.Fatal("MST approx should fail on disconnected terminals")
	}
	lm := g.BuildLandmarks(4, nil)
	if _, ok := g.SteinerViaLandmarks(lm, []int{0, 2}); ok {
		t.Fatal("landmark heuristic should fail on disconnected terminals")
	}
}

func TestSteinerViaLandmarksFindsTree(t *testing.T) {
	g := diamond()
	lm := g.BuildLandmarks(5, nil) // all vertices as landmarks
	tr, ok := g.SteinerViaLandmarks(lm, []int{0, 4})
	if !ok {
		t.Fatal("no tree")
	}
	// With every vertex as a landmark, the optimal 0-1-3-4 union appears.
	if math.Abs(tr.Weight-2.0) > 1e-9 {
		t.Fatalf("weight = %v, want 2", tr.Weight)
	}
	cands := g.SteinerLandmarkCandidates(lm, []int{0, 4})
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].Weight < cands[i-1].Weight {
			t.Fatal("candidates not sorted by weight")
		}
	}
}

func TestSteinerLandmarkPrunesDanglingLandmark(t *testing.T) {
	// Landmark 4 hangs off the path between terminals 0 and 3; the union
	// via landmark 4 includes edge 3-4 which pruning must remove.
	g := diamond()
	lm := &Landmarks{IDs: []int{4}}
	d, p := g.Dijkstra(4)
	lm.dist = [][]float64{d}
	lm.parents = [][]int{p}
	tr, ok := g.SteinerViaLandmarks(lm, []int{0, 3})
	if !ok {
		t.Fatal("no tree")
	}
	for _, v := range tr.Vertices {
		if v == 4 {
			t.Fatalf("dangling landmark not pruned: %+v", tr)
		}
	}
	if math.Abs(tr.Weight-1.0) > 1e-9 {
		t.Fatalf("weight = %v, want 1", tr.Weight)
	}
}

// Property: exact ≤ MST-approx ≤ 2 × exact, and landmark heuristic ≥ exact;
// all outputs span the terminals.
func TestQuickSteinerQualityOrdering(t *testing.T) {
	f := func(seed int64, termPick [3]uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 14
		g := randomConnectedGraph(n, 20, rng)
		terminals := []int{int(termPick[0]) % n, int(termPick[1]) % n, int(termPick[2]) % n}
		set := map[int]bool{}
		var uniq []int
		for _, t := range terminals {
			if !set[t] {
				set[t] = true
				uniq = append(uniq, t)
			}
		}
		exact, ok1 := g.SteinerExact(uniq)
		approx, ok2 := g.SteinerMSTApprox(uniq)
		lm := g.BuildLandmarks(5, rng)
		heur, ok3 := g.SteinerViaLandmarks(lm, uniq)
		if !ok1 || !ok2 || !ok3 {
			return false // graph is connected, all must succeed
		}
		if !terminalsIn(exact, uniq) || !terminalsIn(approx, uniq) || !terminalsIn(heur, uniq) {
			return false
		}
		if !connectedTree(exact, uniq) || !connectedTree(approx, uniq) || !connectedTree(heur, uniq) {
			return false
		}
		const eps = 1e-9
		return exact.Weight <= approx.Weight+eps &&
			approx.Weight <= 2*exact.Weight+eps &&
			exact.Weight <= heur.Weight+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
