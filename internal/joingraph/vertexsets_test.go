package joingraph

import (
	"strings"
	"testing"

	"github.com/dance-db/dance/internal/relation"
)

// mkInstance builds a tiny instance holding the given attributes.
func mkInstance(name string, attrs ...string) *Instance {
	cols := make([]relation.Column, len(attrs))
	for i, a := range attrs {
		cols[i] = relation.Cat(a, relation.KindInt)
	}
	tab := relation.NewTable(name, relation.NewSchema(cols...))
	for r := 0; r < 4; r++ {
		row := make([]relation.Value, len(attrs))
		for c := range row {
			row[c] = relation.IntValue(int64(r % 2))
		}
		tab.Append(row)
	}
	return &Instance{Name: name, Columnar: relation.ToColumnar(tab), FullRows: 4}
}

// example41Graph builds the instance layout of the paper's Example 4.1:
// v1..v3 hold {A,B}, v4 holds {A}, v5 and v7 hold {B,C}, v6 holds {C}.
func example41Graph(t *testing.T) *Graph {
	t.Helper()
	insts := []*Instance{
		mkInstance("v1", "A", "B"), mkInstance("v2", "A", "B"), mkInstance("v3", "A", "B"),
		mkInstance("v4", "A"), mkInstance("v5", "B", "C"), mkInstance("v6", "C"),
		mkInstance("v7", "B", "C"),
	}
	g, err := Build(insts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTargetVertexSetsExample41(t *testing.T) {
	g := example41Graph(t)
	sets, err := g.TargetVertexSets([]string{"A", "B", "C"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Non-redundant covers = assignments attr→holder, merged by instance:
	// |holders(A)| × |holders(B)| × |holders(C)| = 4 × 5 × 3 = 60, and the
	// merge is injective, so 60 distinct sets.
	if len(sets) != 60 {
		t.Fatalf("distinct target vertex sets = %d, want 60", len(sets))
	}
	// The merged Option-1-style set {(v1,{A,B}), (v5,{C})} must be present.
	found := false
	for _, set := range sets {
		if len(set) == 2 &&
			set[0].Instance == 0 && strings.Join(set[0].Attrs, ",") == "A,B" &&
			set[1].Instance == 4 && strings.Join(set[1].Attrs, ",") == "C" {
			found = true
		}
	}
	if !found {
		t.Fatal("merged (v1,{A,B})+(v5,{C}) cover missing")
	}
	// Every set covers exactly {A,B,C} with no redundancy.
	for _, set := range sets {
		counts := map[string]int{}
		for _, v := range set {
			if len(v.Attrs) == 0 {
				t.Fatal("empty vertex")
			}
			for _, a := range v.Attrs {
				counts[a]++
			}
		}
		if len(counts) != 3 || counts["A"] != 1 || counts["B"] != 1 || counts["C"] != 1 {
			t.Fatalf("cover %v is redundant or incomplete", set)
		}
	}
}

func TestTargetVertexSetsCapAndCount(t *testing.T) {
	g := example41Graph(t)
	capped, err := g.TargetVertexSets([]string{"A", "B", "C"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 10 {
		t.Fatalf("capped = %d, want 10", len(capped))
	}
	n, err := g.CountTargetVertexSets([]string{"A", "B"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A: 4 holders × B: 5 holders = 20.
	if n != 20 {
		t.Fatalf("count = %d, want 20", n)
	}
}

func TestTargetVertexSetsErrors(t *testing.T) {
	g := example41Graph(t)
	if _, err := g.TargetVertexSets(nil, 0); err == nil {
		t.Fatal("empty attribute set should error")
	}
	if _, err := g.TargetVertexSets([]string{"Z"}, 0); err == nil {
		t.Fatal("unknown attribute should error")
	}
}

func TestASVertexString(t *testing.T) {
	v := ASVertex{Instance: 3, Attrs: []string{"x", "y"}}
	if got := v.String(); got != "3{x,y}" {
		t.Fatalf("String = %q", got)
	}
}
