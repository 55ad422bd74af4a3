package fd

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/dance-db/dance/internal/bitset"
	"github.com/dance-db/dance/internal/relation"
)

// factoredBase is a stored relation for a → b: a group x whose pairs
// (x,p) and (x,q) first appear at base rows 0 and 1, a NULL-LHS group with
// pairs (NULL,p) and (NULL,r), and a group y with one RHS value.
func factoredBase() *relation.Table {
	tab := relation.NewTable("base", relation.NewSchema(
		relation.Cat("k", relation.KindInt),
		relation.Cat("a", relation.KindString),
		relation.Cat("b", relation.KindString),
	))
	for _, r := range []struct {
		k    int64
		a, b string
	}{{1, "x", "p"}, {2, "x", "q"}, {3, "", "p"}, {4, "", "r"}, {5, "y", "s"}, {6, "x", "q"}} {
		a := relation.Null()
		if r.a != "" {
			a = relation.StringValue(r.a)
		}
		tab.AppendValues(relation.IntValue(r.k), a, relation.StringValue(r.b))
	}
	return tab
}

// probePath joins a probe relation holding the keys ks, in order, to base
// on k: path row i reads the base row whose k is ks[i].
func probePath(t *testing.T, base *relation.Columnar, ks ...int64) *relation.Columnar {
	t.Helper()
	probe := relation.NewTable("probe", relation.NewSchema(relation.Cat("k", relation.KindInt)))
	for _, k := range ks {
		probe.AppendValues(relation.IntValue(k))
	}
	j, err := relation.EquiJoinColumnar(relation.ToColumnar(probe), base, []string{"k"}, nil, relation.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// refineOf refines f over the stored relation base.
func refineOf(t *testing.T, base *relation.Columnar, f FD) *Refinement {
	t.Helper()
	lhs, err := base.Schema().Indexes(f.LHS...)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RefineBase(base, lhs, base.Schema().Index(f.RHS), nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// The factorized quality of an FD anchored at a base relation is the path
// kernel's: ties between a group's pairs are broken by the first *path*
// row, base rows repeated in the path count once per path row, a NULL LHS
// is a group like any other, and a stored relation is its own path.
func TestQualityFactoredMatchesPathKernel(t *testing.T) {
	base := relation.ToColumnar(factoredBase())
	f := New("b", "a")
	ref := refineOf(t, base, f)
	if ref.Holds() || !ref.Factored() {
		t.Fatalf("a → b: holds %v, factored %v; want an inexact refinement", ref.Holds(), ref.Factored())
	}
	cases := []struct {
		name string
		c    *relation.Columnar
		vec  int
		want []int // the correct rows
	}{
		// Path rows read base rows 1,0,0,1,3,2,4. In x, (x,q) and (x,p)
		// both have two path rows, and (x,q) comes first on the path
		// although (x,p) comes first in the base: rows 1 and 2 go. In NULL,
		// (NULL,r) comes first on the path: row 5 goes.
		{"path with ties and repeats", probePath(t, base, 2, 1, 1, 2, 4, 3, 5), 1, []int{0, 3, 4, 6}},
		// The base itself: (x,q) holds two rows, and (NULL,p) wins the tie
		// by base row 2; rows 0 and 3 go.
		{"stored relation", base, 0, []int{1, 2, 4, 5}},
		// Only the pure group and one pair of x: nothing goes.
		{"no minority", probePath(t, base, 5, 2, 6, 5), 1, []int{0, 1, 2, 3}},
	}
	for _, tc := range cases {
		n := tc.c.NumRows()
		want, err := CorrectRowsColumnar(tc.c, f)
		if err != nil {
			t.Fatal(err)
		}
		if rows := rowsOf(want, n); !slices.Equal(rows, tc.want) {
			t.Fatalf("%s: the path kernel keeps rows %v, want %v", tc.name, rows, tc.want)
		}
		wantQ, err := QualitySetColumnar(tc.c, []FD{f}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*relation.Scratch{nil, relation.NewScratch(nil)} {
			got := bitset.NewFull(n)
			ref.clearMinority(got, tc.c.RowIDs(tc.vec), s)
			if rows := rowsOf(got, n); !slices.Equal(rows, tc.want) {
				t.Fatalf("%s (scratch %v): the refinement keeps rows %v, want %v", tc.name, s != nil, rows, tc.want)
			}
			gotQ, err := QualityFactored(tc.c, nil, []Anchor{{Vec: tc.vec, Ref: ref}}, s)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(gotQ) != math.Float64bits(wantQ) {
				t.Fatalf("%s (scratch %v): factorized quality %v, path kernel %v", tc.name, s != nil, gotQ, wantQ)
			}
		}
	}

	if !refineOf(t, base, New("a", "k")).Holds() {
		t.Fatal("k → a holds exactly on the base, but its refinement does not say so")
	}
	// Six rows of a relation whose RHS dictionary has 45 codes: 3 LHS
	// groups × 45 codes exceed 4 keys per row, so a → b is not refined.
	wide := relation.NewTable("wide", factoredBase().Schema)
	wide.Rows = append(wide.Rows, factoredBase().Rows...)
	for i := 0; i < 40; i++ {
		wide.AppendValues(relation.IntValue(int64(100+i)), relation.StringValue("z"), relation.StringValue(string(rune('A'+i))))
	}
	rows := []int32{0, 1, 2, 3, 4, 5}
	if ref := refineOf(t, relation.ToColumnar(wide).FilterRows(rows), f); ref.Factored() {
		t.Fatal("a → b over a 45-code dictionary and 6 rows was refined")
	}
}

// On random relations joined to random probes, with NULLs, int/float
// mixes and multi-attribute LHSs, every anchored FD's factorized quality
// is the path kernel's, alone and together with path-kernel FDs. The join
// attribute d is read on the path through the probe's vector; the FDs on
// it are anchored at the base, whose d the join makes equal.
func TestQualityFactoredRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	fds := []FD{New("d", "a"), New("b", "a", "c"), New("a", "c"), New("c", "b", "d"), New("d", "b")}
	for trial := 0; trial < 40; trial++ {
		tab := randomFDTable(rng, 30+rng.Intn(200), []float64{0.05, 0.3, 0.6}[trial%3])
		// Join on d, so path rows repeat the base rows of popular d values.
		base := relation.ToColumnar(tab)
		ks := make([]int64, 20+rng.Intn(300))
		for i := range ks {
			ks[i] = int64(rng.Intn(9))
		}
		probe := relation.NewTable("probe", relation.NewSchema(relation.Cat("d", relation.KindInt)))
		for _, k := range ks {
			probe.AppendValues(relation.IntValue(k))
		}
		path, err := relation.EquiJoinColumnar(relation.ToColumnar(probe), base, []string{"d"}, nil, relation.JoinOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			c   *relation.Columnar
			vec int
		}{{base, 0}, {path, 1}} {
			if c.c.NumRows() == 0 {
				continue
			}
			var anchors []Anchor
			for i, f := range fds {
				ref := refineOf(t, base, f)
				want, err := QualitySetColumnar(c.c, []FD{f}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !ref.Factored() {
					continue
				}
				got, err := QualityFactored(c.c, nil, []Anchor{{Vec: c.vec, Ref: ref}}, relation.NewScratch(nil))
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d %s on %d rows: factorized %v, path kernel %v", trial, f, c.c.NumRows(), got, want)
				}
				if i%2 == 0 {
					anchors = append(anchors, Anchor{Vec: c.vec, Ref: ref})
				}
			}
			var rest []FD
			for i, f := range fds {
				if i%2 == 1 || !refineOf(t, base, f).Factored() {
					rest = append(rest, f)
				}
			}
			want, err := QualitySetColumnar(c.c, fds, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := QualityFactored(c.c, rest, anchors, nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d all FDs on %d rows: factorized %v, path kernel %v", trial, c.c.NumRows(), got, want)
			}
		}
	}
}
