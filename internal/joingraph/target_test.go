package joingraph

import (
	"strings"
	"testing"

	"github.com/dance-db/dance/internal/relation"
)

// chainInstances builds three instances a(k1,x) – b(k1,k2) – c(k2,y) so the
// join graph is a path a—b—c.
func chainInstances() []*Instance {
	a := relation.NewTable("a", relation.NewSchema(
		relation.Cat("k1", relation.KindInt), relation.Cat("x", relation.KindInt)))
	b := relation.NewTable("b", relation.NewSchema(
		relation.Cat("k1", relation.KindInt), relation.Cat("k2", relation.KindInt)))
	c := relation.NewTable("c", relation.NewSchema(
		relation.Cat("k2", relation.KindInt), relation.Cat("y", relation.KindInt)))
	for i := 0; i < 60; i++ {
		k1 := int64(i % 6)
		k2 := int64(i % 4)
		a.AppendValues(relation.IntValue(k1), relation.IntValue(int64(i%9)))
		b.AppendValues(relation.IntValue(k1), relation.IntValue(k2))
		c.AppendValues(relation.IntValue(k2), relation.IntValue(int64(i%7)))
	}
	return []*Instance{
		{Name: "a", Columnar: relation.ToColumnar(a), FullRows: 600},
		{Name: "b", Columnar: relation.ToColumnar(b), FullRows: 600},
		{Name: "c", Columnar: relation.ToColumnar(c), FullRows: 600},
	}
}

func buildChain(t *testing.T) *Graph {
	t.Helper()
	insts := chainInstances()
	g, err := Build(insts, Config{Quoter: newQuoter(insts)})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func chainTG(t *testing.T, g *Graph) *TargetGraph {
	t.Helper()
	tg, err := NewTargetGraph(g,
		[]int{0, 1, 2},
		[]TGEdge{{I: 0, J: 1, Variant: 0}, {I: 1, J: 2, Variant: 0}},
		map[string]int{"x": 0, "y": 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

func TestNewTargetGraphValidation(t *testing.T) {
	g := buildChain(t)
	if _, err := NewTargetGraph(g, []int{0, 9}, nil, nil); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
	if _, err := NewTargetGraph(g, []int{0, 1}, []TGEdge{{I: 1, J: 0}}, nil); err == nil {
		t.Fatal("non-normalized edge accepted")
	}
	if _, err := NewTargetGraph(g, []int{0, 2}, []TGEdge{{I: 0, J: 2}}, nil); err == nil {
		t.Fatal("edge without I-edge accepted (a and c share nothing)")
	}
	if _, err := NewTargetGraph(g, []int{0, 1}, []TGEdge{{I: 0, J: 1, Variant: 99}}, nil); err == nil {
		t.Fatal("variant out of range accepted")
	}
	if _, err := NewTargetGraph(g, []int{0, 1}, []TGEdge{{I: 0, J: 1}}, map[string]int{"y": 2}); err == nil {
		t.Fatal("assignment to vertex outside tree accepted")
	}
	if _, err := NewTargetGraph(g, []int{0, 1}, []TGEdge{{I: 0, J: 1}}, map[string]int{"y": 0}); err == nil {
		t.Fatal("assignment of attribute the instance lacks accepted")
	}
	if _, err := NewTargetGraph(g, []int{0, 1, 2}, []TGEdge{{I: 0, J: 1}}, nil); err == nil {
		t.Fatal("disconnected tree accepted")
	}
}

func TestTargetGraphWeightPricePurchase(t *testing.T) {
	g := buildChain(t)
	tg := chainTG(t, g)

	wantW := g.EdgeBetween(0, 1).Variants[0].JI + g.EdgeBetween(1, 2).Variants[0].JI
	if w := tg.Weight(); w != wantW {
		t.Fatalf("Weight = %v, want %v", w, wantW)
	}

	purchase := tg.Purchase()
	if len(purchase) != 3 {
		t.Fatalf("purchase sets = %v", purchase)
	}
	// a buys k1 (join) + x (target); b buys k1,k2; c buys k2,y.
	if got := strings.Join(purchase[0], ","); got != "k1,x" {
		t.Fatalf("purchase[a] = %v", got)
	}
	if got := strings.Join(purchase[1], ","); got != "k1,k2" {
		t.Fatalf("purchase[b] = %v", got)
	}
	if got := strings.Join(purchase[2], ","); got != "k2,y" {
		t.Fatalf("purchase[c] = %v", got)
	}

	p, err := tg.Price(bg)
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 {
		t.Fatalf("price = %v", p)
	}
}

func TestTargetGraphOwnedInstanceNotPurchased(t *testing.T) {
	insts := chainInstances()
	insts[0].Owned = true
	g, err := Build(insts, Config{Quoter: newQuoter(insts)})
	if err != nil {
		t.Fatal(err)
	}
	tg := chainTG(t, g)
	purchase := tg.Purchase()
	if _, ok := purchase[0]; ok {
		t.Fatal("owned instance must not appear in purchase sets")
	}
	pOwned, err := tg.Price(bg)
	if err != nil {
		t.Fatal(err)
	}
	g2 := buildChain(t)
	pAll, _ := chainTG(t, g2).Price(bg)
	if pOwned >= pAll {
		t.Fatalf("price with owned source (%v) should be below full price (%v)", pOwned, pAll)
	}
}

func TestJoinPlan(t *testing.T) {
	g := buildChain(t)
	tg := chainTG(t, g)
	hops, err := tg.JoinPlan()
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 3 || len(hops[0].On) != 0 {
		t.Fatalf("hops = %v, want 3 with an unjoined root", hops)
	}
	steps := make([]relation.PathStep, len(hops))
	for i, h := range hops {
		steps[i] = relation.PathStep{Table: g.Instances[h.Vertex].Columnar.ToTable(), On: h.On}
	}
	j, err := relation.JoinPath(steps)
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() == 0 {
		t.Fatal("join is empty")
	}
	for _, col := range []string{"x", "y", "k1", "k2"} {
		if !j.Schema.Has(col) {
			t.Fatalf("join missing column %s", col)
		}
	}
}

func TestJoinPlanSingleVertex(t *testing.T) {
	g := buildChain(t)
	tg, err := NewTargetGraph(g, []int{1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	hops, err := tg.JoinPlan()
	if err != nil || len(hops) != 1 || hops[0].Vertex != 1 {
		t.Fatalf("hops = %v, %v", hops, err)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := buildChain(t)
	tg := chainTG(t, g)
	c := tg.Clone()
	c.Edges[0].Variant = 1
	c.Assign["x"] = 0
	if tg.Edges[0].Variant == 1 {
		t.Fatal("Clone shares edge storage")
	}
}

func TestTargetGraphString(t *testing.T) {
	g := buildChain(t)
	tg := chainTG(t, g)
	s := tg.String()
	for _, want := range []string{"a", "b", "c", "on"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestTargetCovers(t *testing.T) {
	g := buildChain(t)
	covers, err := g.TargetCovers([]string{"x", "y"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// x only in a, y only in c → unique cover {a, c}.
	if len(covers) != 1 || len(covers[0]) != 2 || covers[0][0] != 0 || covers[0][1] != 2 {
		t.Fatalf("covers = %v", covers)
	}
	// k1 is in a and b → two covers for {k1, y}.
	covers, err = g.TargetCovers([]string{"k1", "y"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(covers) != 2 {
		t.Fatalf("covers = %v, want 2", covers)
	}
	if _, err := g.TargetCovers([]string{"nowhere"}, 0); err == nil {
		t.Fatal("uncoverable attribute should error")
	}
	if _, err := g.TargetCovers(nil, 0); err == nil {
		t.Fatal("empty attribute set should error")
	}
}

func TestTargetCoversMinimality(t *testing.T) {
	g := buildChain(t)
	// {k1, k2}: b alone covers both; {a, c} also covers but is larger yet
	// not a superset of {b} — both must appear; supersets like {a,b} must
	// not.
	covers, err := g.TargetCovers([]string{"k1", "k2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range covers {
		for _, o := range covers {
			if len(o) < len(c) && subsetInts(o, c) {
				t.Fatalf("non-minimal cover %v ⊃ %v", c, o)
			}
		}
	}
	found := false
	for _, c := range covers {
		if len(c) == 1 && c[0] == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("singleton cover {b} missing: %v", covers)
	}
}

func TestTargetCoversCap(t *testing.T) {
	g := buildChain(t)
	covers, err := g.TargetCovers([]string{"k1", "k2"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(covers) != 1 {
		t.Fatalf("capped covers = %v", covers)
	}
}

func TestAssignAttrs(t *testing.T) {
	g := buildChain(t)
	assign, err := g.AssignAttrs([]string{"x", "k2"}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if assign["x"] != 0 || assign["k2"] != 1 {
		t.Fatalf("assign = %v", assign)
	}
	if _, err := g.AssignAttrs([]string{"y"}, []int{0, 1}); err == nil {
		t.Fatal("uncovered attribute should error")
	}
}

func TestTargetGraphFDsAndJoinAttrsOf(t *testing.T) {
	g := buildChain(t)
	tg := chainTG(t, g)
	fds := tg.FDs()
	if len(fds) != 0 {
		t.Fatalf("chain instances declare no FDs, got %v", fds)
	}
	attrs := tg.Edges[0].JoinAttrsOf(g)
	if len(attrs) != 1 || attrs[0] != "k1" {
		t.Fatalf("JoinAttrsOf = %v", attrs)
	}
}

func TestSourceCoversPrefersOwned(t *testing.T) {
	insts := chainInstances()
	insts[0].Owned = true // "a" owns k1 and x
	g, err := Build(insts, Config{Quoter: newQuoter(insts)})
	if err != nil {
		t.Fatal(err)
	}
	// k1 lives in a (owned) and b (market): source covers must pin to a.
	covers, err := g.SourceCovers([]string{"k1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(covers) != 1 || len(covers[0]) != 1 || covers[0][0] != 0 {
		t.Fatalf("SourceCovers = %v, want [[0]]", covers)
	}
	// Target covers stay unrestricted.
	tcovers, err := g.TargetCovers([]string{"k1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tcovers) != 2 {
		t.Fatalf("TargetCovers = %v, want both holders", tcovers)
	}
}
