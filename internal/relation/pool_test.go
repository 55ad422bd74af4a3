package relation

import (
	"slices"
	"testing"
)

// noScratch is the nil Scratch: kernels run with it allocate as usual.
var noScratch *Scratch

// scratchTable builds a table with a coded key, a coded category and a raw
// numeric measure column.
func scratchTable(name string, n, keys int) *Table {
	t := NewTable(name, NewSchema(Cat("k", KindInt), Cat("c", KindString), Num("v", KindFloat)))
	for i := 0; i < n; i++ {
		c := "a"
		if i%3 == 0 {
			c = "b"
		}
		t.Append([]Value{IntValue(int64(i % keys)), StringValue(c), FloatValue(float64(i) / 7)})
	}
	return t
}

// held counts the buffers s holds in its free lists.
func held(s *Scratch) int {
	return len(s.u32.free) + len(s.i32.free) + len(s.i64.free) + len(s.f64.free) + len(s.bools.free)
}

// Release and ReleaseGrouping are no-ops on anything the scratch did not
// hand out — an instance encoding, a projected view, a plain gather (what
// the prefix memo holds), a plain grouping (what BuildJoinIndex groups
// with), another scratch's values — and on values already released; the
// values stay intact and the scratch takes none of their storage.
func TestScratchReleaseIgnoresForeignValues(t *testing.T) {
	a, err := ToColumnarSubset(scratchTable("a", 50, 7), []string{"k", "c"}, []string{"v"})
	if err != nil {
		t.Fatal(err)
	}
	b := ToColumnar(scratchTable("b", 30, 5))
	view := a.Project(map[string]bool{"k": true, "v": true})
	pairs, err := noScratch.EquiJoinPairs(a, b, []string{"k"}, nil, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	published := noScratch.Extend(pairs)
	plainGroups, err := noScratch.GroupBy(a, []int{0, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	other := NewScratch(nil)
	otherGroups, err := other.GroupBy(a, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []*Table{a.ToTable(), view.ToTable(), published.ToTable()}
	wantCodes := slices.Clone(plainGroups.Codes)

	s := NewScratch(nil)
	for _, c := range []*Columnar{a, view, published, nil} {
		s.Release(c)
	}
	s.ReleaseGrouping(plainGroups)
	s.ReleaseGrouping(otherGroups)
	s.ReleaseGrouping(nil)
	var nilScratch *Scratch
	nilScratch.Release(published)
	nilScratch.ReleaseGrouping(plainGroups)
	if n := held(s); n != 0 {
		t.Fatalf("scratch took %d buffers it never handed out", n)
	}
	for i, c := range []*Columnar{a, view, published} {
		if got := c.ToTable(); !got.Schema.Equal(want[i].Schema) || !slices.EqualFunc(got.Rows, want[i].Rows, func(x, y []Value) bool {
			return slices.EqualFunc(x, y, func(p, q Value) bool { return p.EqualValue(q) && p.IsNull() == q.IsNull() })
		}) {
			t.Fatalf("value %d changed by a foreign Release", i)
		}
	}
	if !slices.Equal(plainGroups.Codes, wantCodes) || otherGroups.Codes == nil {
		t.Fatal("grouping emptied by a foreign ReleaseGrouping")
	}

	// Its own values go back once; a second release is a no-op too.
	g, err := s.GroupBy(a, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err = s.EquiJoinPairs(a, b, []string{"k"}, nil, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j := s.Extend(pairs)
	before := held(s)
	s.ReleaseGrouping(g)
	s.Release(j)
	after := held(s)
	if after != before+4 { // codes, counts, first; the path's row ids
		t.Fatalf("releasing a grouping and a join returned %d buffers, want 4", after-before)
	}
	s.ReleaseGrouping(g)
	s.Release(j)
	if held(s) != after {
		t.Fatal("a second release returned buffers again")
	}
	if g.Codes != nil || j.NumRows() != 0 {
		t.Fatal("a released value is still readable")
	}
}

// Values built from recycled buffers are the values a plain allocation
// yields, whatever the buffers held before.
func TestScratchReuseMatchesPlain(t *testing.T) {
	a := ToColumnar(scratchTable("a", 200, 13))
	b := ToColumnar(scratchTable("b", 90, 11))
	s := NewScratch(NewSchemaMemo(4))
	for round := 0; round < 4; round++ {
		for _, cols := range [][]int{{0}, {1}, {0, 1}, {}} {
			want, err := noScratch.GroupBy(a, cols, 1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.GroupBy(a, cols, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Codes, want.Codes) || !slices.Equal(got.Counts, want.Counts) || !slices.Equal(got.First, want.First) {
				t.Fatalf("round %d: scratch grouping on %v differs", round, cols)
			}
			r, err := s.Refine(a, got, 1)
			if err != nil {
				t.Fatal(err)
			}
			wantR, err := noScratch.Refine(a, want, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(r.Codes, wantR.Codes) || !slices.Equal(r.Counts, wantR.Counts) || !slices.Equal(r.First, wantR.First) {
				t.Fatalf("round %d: scratch refinement of %v differs", round, cols)
			}
			s.ReleaseGrouping(r)
			s.ReleaseGrouping(got)
		}
		plain, err := EquiJoinColumnar(a, b, []string{"k"}, nil, JoinOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pairs, err := s.EquiJoinPairs(a, b, []string{"k"}, nil, JoinOptions{})
		if err != nil {
			t.Fatal(err)
		}
		again, err := s.EquiJoinPairs(a, b, []string{"k"}, nil, JoinOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if again.Schema() != pairs.Schema() {
			t.Fatal("the schema memo built the joined schema twice")
		}
		s.Release(s.Extend(again))
		j := s.Extend(pairs)
		if !j.Schema().Equal(plain.Schema()) || j.NumRows() != plain.NumRows() {
			t.Fatalf("round %d: scratch join %s%d rows, plain %s%d", round, j.Schema(), j.NumRows(), plain.Schema(), plain.NumRows())
		}
		for col := 0; col < plain.Schema().Len(); col++ {
			for row := 0; row < plain.NumRows(); row++ {
				if !j.ValueAt(row, col).EqualValue(plain.ValueAt(row, col)) {
					t.Fatalf("round %d: cell (%d, %d) differs", round, row, col)
				}
			}
		}
		s.Release(j)
	}
}
