package joingraph

import (
	"strings"
	"testing"

	"github.com/dance-db/dance/internal/infotheory"
)

// TestASEdgesFigure3 materializes the AS-layer of the paper's Figure 3:
// D1(A,B,C) and D2(B,C,D,E). D1's lattice has 2^3−3−1 = 4 vertices, D2's
// has 2^4−4−1 = 11; every vertex pair with intersecting attributes is an
// AS-edge.
func TestASEdgesFigure3(t *testing.T) {
	insts := figure3Instances(9)
	g, err := Build(insts, Config{MaxJoinAttrs: 3})
	if err != nil {
		t.Fatal(err)
	}
	edges, err := g.ASEdges(0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) == 0 {
		t.Fatal("no AS-edges")
	}
	// Count: D1 vertices {AB, AC, BC, ABC}; D2 vertices are the 11 subsets
	// of {B,C,D,E} with ≥ 2 attrs. Intersections are over {B, C}.
	// D1's AB intersects D2 vertices containing B: {BC,BD,BE,BCD,BCE,BDE,
	// BCDE} → 7; similarly AC ↔ C-containing: 7; BC and ABC intersect all
	// vertices containing B or C: 11 − |{DE}| = 10 each.
	if len(edges) != 7+7+10+10 {
		t.Fatalf("AS-edges = %d, want 34", len(edges))
	}
	for _, e := range edges {
		if e.JI < 0 || e.JI > 1 {
			t.Fatalf("JI out of range: %+v", e)
		}
		if len(e.JoinAttrs) == 0 {
			t.Fatalf("empty join attrs: %+v", e)
		}
	}
}

// Property 4.1: all AS-edges with the same join-attribute set carry the
// same weight, and that weight equals the directly computed JI.
func TestASEdgesProperty41(t *testing.T) {
	insts := figure3Instances(10)
	g, err := Build(insts, Config{MaxJoinAttrs: 3})
	if err != nil {
		t.Fatal(err)
	}
	edges, err := g.ASEdges(0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	bySet := map[string][]float64{}
	for _, e := range edges {
		k := strings.Join(e.JoinAttrs, ",")
		bySet[k] = append(bySet[k], e.JI)
	}
	if len(bySet) != 3 { // {B}, {C}, {B,C}
		t.Fatalf("distinct join-attribute sets = %d, want 3", len(bySet))
	}
	for k, jis := range bySet {
		for _, ji := range jis[1:] {
			if ji != jis[0] {
				t.Fatalf("Property 4.1 violated for %s: %v", k, jis)
			}
		}
		direct, err := infotheory.JoinInformativeness(
			insts[0].Columnar, insts[1].Columnar, strings.Split(k, ","))
		if err != nil {
			t.Fatal(err)
		}
		if diff := direct - jis[0]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("weight for %s (%v) differs from direct JI (%v)", k, jis[0], direct)
		}
	}
}

func TestASEdgesGuards(t *testing.T) {
	insts := figure3Instances(11)
	g, err := Build(insts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.ASEdges(0, 0, 0); err == nil {
		t.Fatal("same instance should error")
	}
	if _, err := g.ASEdges(0, 1, 2); err == nil {
		t.Fatal("maxAttrs below instance width should error")
	}
	// Symmetric call order works (i > j normalized).
	e1, err := g.ASEdges(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := g.ASEdges(0, 1, 0)
	if len(e1) != len(e2) {
		t.Fatalf("asymmetric enumeration: %d vs %d", len(e1), len(e2))
	}
}

func TestIntersectSorted(t *testing.T) {
	got := intersectSorted([]string{"a", "c", "e"}, []string{"b", "c", "d", "e"})
	if len(got) != 2 || got[0] != "c" || got[1] != "e" {
		t.Fatalf("intersect = %v", got)
	}
	if intersectSorted([]string{"a"}, []string{"b"}) != nil {
		t.Fatal("disjoint intersect should be nil")
	}
}
