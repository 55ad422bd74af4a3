package joingraph

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/infotheory"
	"github.com/dance-db/dance/internal/pricing"
	"github.com/dance-db/dance/internal/relation"
)

// figure3Instances builds the paper's Figure 3 setup: D1(A,B,C) and
// D2(B,C,D,E) sharing {B, C}.
func figure3Instances(seed int64) []*Instance {
	rng := rand.New(rand.NewSource(seed))
	d1 := relation.NewTable("D1", relation.NewSchema(
		relation.Cat("A", relation.KindInt),
		relation.Cat("B", relation.KindInt),
		relation.Cat("C", relation.KindInt),
	))
	d2 := relation.NewTable("D2", relation.NewSchema(
		relation.Cat("B", relation.KindInt),
		relation.Cat("C", relation.KindInt),
		relation.Cat("D", relation.KindInt),
		relation.Cat("E", relation.KindInt),
	))
	for i := 0; i < 200; i++ {
		b := int64(rng.Intn(8))
		c := int64(rng.Intn(6))
		d1.AppendValues(relation.IntValue(int64(rng.Intn(20))), relation.IntValue(b), relation.IntValue(c))
		d2.AppendValues(relation.IntValue(b), relation.IntValue(c),
			relation.IntValue(int64(rng.Intn(4))), relation.IntValue(int64(rng.Intn(10))))
	}
	return []*Instance{
		{Name: "D1", Columnar: relation.ToColumnar(d1), FullRows: 2000, FDs: []fd.FD{fd.New("B", "A")}},
		{Name: "D2", Columnar: relation.ToColumnar(d2), FullRows: 4000, FDs: []fd.FD{fd.New("E", "D")}},
	}
}

var bg = context.Background()

type quoter struct {
	model     pricing.Model
	instances map[string]*relation.Table
	calls     int
}

func newQuoter(instances []*Instance) *quoter {
	q := &quoter{model: pricing.DefaultEntropyModel(), instances: map[string]*relation.Table{}}
	for _, inst := range instances {
		q.instances[inst.Name] = inst.Columnar.ToTable()
	}
	return q
}

func (q *quoter) QuoteProjection(_ context.Context, instance string, attrs []string) (float64, error) {
	q.calls++
	return q.model.PriceProjection(q.instances[instance], attrs)
}

func buildFig3(t *testing.T) (*Graph, *quoter) {
	t.Helper()
	insts := figure3Instances(1)
	q := newQuoter(insts)
	g, err := Build(insts, Config{Quoter: q})
	if err != nil {
		t.Fatal(err)
	}
	return g, q
}

func TestBuildCreatesEdgeWithVariants(t *testing.T) {
	g, _ := buildFig3(t)
	if len(g.Edges) != 1 {
		t.Fatalf("edges = %d, want 1", len(g.Edges))
	}
	e := g.Edges[0]
	if len(e.Shared) != 2 || e.Shared[0] != "B" || e.Shared[1] != "C" {
		t.Fatalf("shared = %v", e.Shared)
	}
	// Variants: {B}, {C}, {B,C}.
	if len(e.Variants) != 3 {
		t.Fatalf("variants = %d, want 3", len(e.Variants))
	}
	// MinJI is the minimum over variants and MinVariant points at it.
	min := e.Variants[0].JI
	for _, v := range e.Variants {
		if v.JI < min {
			min = v.JI
		}
	}
	if e.MinJI != min || e.Variants[e.MinVariant()].JI != min {
		t.Fatalf("MinJI=%v MinVariant JI=%v want %v", e.MinJI, e.Variants[e.MinVariant()].JI, min)
	}
	for _, v := range e.Variants {
		if v.JI < 0 || v.JI > 1 {
			t.Fatalf("JI out of range: %v", v.JI)
		}
	}
}

// Property 4.1: an AS-edge weight depends only on the instance pair and the
// join-attribute set, so Build's per-variant JI must equal the join
// informativeness computed directly on that attribute set.
func TestASEdgesProperty41(t *testing.T) {
	insts := figure3Instances(10)
	g, err := Build(insts, Config{MaxJoinAttrs: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := g.EdgeBetween(0, 1)
	if e == nil || len(e.Variants) != 3 { // {B}, {C}, {B,C}
		t.Fatalf("edge D1–D2 = %+v, want 3 variants", e)
	}
	for _, v := range e.Variants {
		direct, err := infotheory.JoinInformativeness(insts[0].Columnar, insts[1].Columnar, v.JoinAttrs)
		if err != nil {
			t.Fatal(err)
		}
		if diff := direct - v.JI; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("variant %v weight %v differs from direct JI %v", v.JoinAttrs, v.JI, direct)
		}
	}
}

func TestBuildSkipsDisjointSchemas(t *testing.T) {
	a := relation.NewTable("a", relation.NewSchema(relation.Cat("x", relation.KindInt)))
	b := relation.NewTable("b", relation.NewSchema(relation.Cat("y", relation.KindInt)))
	a.AppendValues(relation.IntValue(1))
	b.AppendValues(relation.IntValue(2))
	g, err := Build([]*Instance{{Name: "a", Columnar: relation.ToColumnar(a)}, {Name: "b", Columnar: relation.ToColumnar(b)}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Edges) != 0 {
		t.Fatalf("disjoint schemas should produce no edge, got %d", len(g.Edges))
	}
}

func TestMaxJoinAttrsCap(t *testing.T) {
	insts := figure3Instances(2)
	g, err := Build(insts, Config{MaxJoinAttrs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Edges[0].Variants) != 2 { // only {B} and {C}
		t.Fatalf("variants = %d, want 2", len(g.Edges[0].Variants))
	}
}

func TestEdgeBetweenAndInstanceIndex(t *testing.T) {
	g, _ := buildFig3(t)
	if g.EdgeBetween(1, 0) == nil || g.EdgeBetween(0, 1) == nil {
		t.Fatal("EdgeBetween should be symmetric")
	}
	if g.InstanceIndex("D2") != 1 || g.InstanceIndex("zz") != -1 {
		t.Fatal("InstanceIndex broken")
	}
}

func TestILayerExport(t *testing.T) {
	g, _ := buildFig3(t)
	ig := g.ILayer()
	if ig.N() != 2 || len(ig.Edges()) != 1 {
		t.Fatalf("ILayer shape: %d vertices %d edges", ig.N(), len(ig.Edges()))
	}
	if ig.Weight(0, 1) != g.Edges[0].MinJI+ILayerEdgeEpsilon {
		t.Fatal("ILayer weight should be MinJI plus the tie-breaking epsilon")
	}
}

func TestPriceCachingAndOwnedFree(t *testing.T) {
	insts := figure3Instances(3)
	insts[0].Owned = true
	q := newQuoter(insts)
	g, err := Build(insts, Config{Quoter: q})
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.Price(bg, 0, []string{"A", "B"})
	if err != nil || p != 0 {
		t.Fatalf("owned price = %v, %v; want 0", p, err)
	}
	base := q.calls
	p1, err := g.Price(bg, 1, []string{"D", "E"})
	if err != nil || p1 <= 0 {
		t.Fatalf("price = %v, %v", p1, err)
	}
	p2, _ := g.Price(bg, 1, []string{"E", "D"}) // different order, same set
	if p2 != p1 {
		t.Fatal("price should be order-insensitive")
	}
	if q.calls != base+1 {
		t.Fatalf("quoter called %d times, want 1 (cache)", q.calls-base)
	}
}

// nameQuoter prices a projection by its listing name alone.
type nameQuoter struct{}

func (nameQuoter) QuoteProjection(_ context.Context, instance string, _ []string) (float64, error) {
	return float64(len(instance)), nil
}

// TestPriceKeysDoNotAliasOnNUL pins that a listing name holding a NUL
// cannot take over another listing's memoized price: listing "x\x00a"
// pricing [b] and listing "x" pricing [a b] are different quotes.
func TestPriceKeysDoNotAliasOnNUL(t *testing.T) {
	x := relation.NewTable("x", relation.NewSchema(
		relation.Cat("a", relation.KindInt), relation.Cat("b", relation.KindInt)))
	xa := relation.NewTable("x\x00a", relation.NewSchema(relation.Cat("b", relation.KindInt)))
	for i := int64(0); i < 4; i++ {
		x.AppendValues(relation.IntValue(i), relation.IntValue(i))
		xa.AppendValues(relation.IntValue(i))
	}
	g, err := Build([]*Instance{
		{Name: x.Name, Columnar: relation.ToColumnar(x), FullRows: 4},
		{Name: xa.Name, Columnar: relation.ToColumnar(xa), FullRows: 4},
	}, Config{Quoter: nameQuoter{}})
	if err != nil {
		t.Fatal(err)
	}
	if p, err := g.Price(bg, 0, []string{"a", "b"}); err != nil || p != 1 {
		t.Fatalf("price of x[a b] = %v, %v; want 1", p, err)
	}
	if p, err := g.Price(bg, 1, []string{"b"}); err != nil || p != 3 {
		t.Fatalf("price of x\\x00a[b] = %v, %v; want 3 (its own quote)", p, err)
	}
}

func TestPriceWithoutQuoterErrors(t *testing.T) {
	insts := figure3Instances(4)
	g, _ := Build(insts, Config{})
	if _, err := g.Price(bg, 0, []string{"A"}); err == nil {
		t.Fatal("missing quoter should error")
	}
}

func TestInstancesWithAttrAndAllFDs(t *testing.T) {
	g, _ := buildFig3(t)
	if got := g.InstancesWithAttr("B"); len(got) != 2 {
		t.Fatalf("InstancesWithAttr(B) = %v", got)
	}
	if got := g.InstancesWithAttr("A"); len(got) != 1 || got[0] != 0 {
		t.Fatalf("InstancesWithAttr(A) = %v", got)
	}
	fds := g.AllFDs([]int{0, 1})
	if len(fds) != 2 {
		t.Fatalf("AllFDs = %v", fds)
	}
	// Duplicate FDs are deduplicated.
	g.Instances[1].FDs = append(g.Instances[1].FDs, fd.New("B", "A"))
	fds = g.AllFDs([]int{0, 1})
	if len(fds) != 2 {
		t.Fatalf("AllFDs after dup = %v", fds)
	}
}

func TestEnumerateSubsets(t *testing.T) {
	subs := enumerateSubsets([]string{"a", "b", "c"}, 3)
	if len(subs) != 7 {
		t.Fatalf("subsets = %d, want 7", len(subs))
	}
	if len(subs[0]) != 1 || len(subs[6]) != 3 {
		t.Fatalf("subset ordering wrong: %v", subs)
	}
	capped := enumerateSubsets([]string{"a", "b", "c"}, 2)
	if len(capped) != 6 {
		t.Fatalf("capped subsets = %d, want 6", len(capped))
	}
}

// Property 4.1 consequence: variants with the same join attrs across
// rebuilds have identical weights (estimation is deterministic given the
// sample).
func TestBuildDeterministic(t *testing.T) {
	g1, _ := buildFig3(t)
	g2, _ := buildFig3(t)
	for i := range g1.Edges {
		for j := range g1.Edges[i].Variants {
			if g1.Edges[i].Variants[j].JI != g2.Edges[i].Variants[j].JI {
				t.Fatal("build not deterministic")
			}
		}
	}
}

// TestBuildEncodesEachInstanceOnce pins the one-encoding contract: Build
// reads each instance's prebuilt Columnar sample as it is, across rebuilds,
// and rejects an instance that arrives without one instead of encoding it.
func TestBuildEncodesEachInstanceOnce(t *testing.T) {
	insts := figure3Instances(4)
	encoded := []*relation.Columnar{insts[0].Columnar, insts[1].Columnar}
	for round := 0; round < 2; round++ {
		if _, err := Build(insts, Config{}); err != nil {
			t.Fatal(err)
		}
		for i, inst := range insts {
			if inst.Columnar != encoded[i] {
				t.Fatalf("build %d replaced the encoding of %s", round, inst.Name)
			}
		}
	}
	insts[1].Columnar = nil
	if _, err := Build(insts, Config{}); err == nil || !strings.Contains(err.Error(), "D2") {
		t.Fatalf("Build of an unencoded instance: err = %v, want an error naming D2", err)
	}
}
