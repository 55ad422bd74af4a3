package relation

import (
	"math/rand"
	"slices"
	"testing"
)

// randomTable builds a table with mixed-kind columns, NULL dirt, and values
// drawn from small domains so joins and groups collide (nullFrac ~ 0.3 makes
// a NULL-heavy dirty table).
func randomTable(t *testing.T, rng *rand.Rand, name string, nRows int, nullFrac float64) *Table {
	t.Helper()
	schema := NewSchema(
		Cat("k", KindInt),
		Cat("s", KindString),
		Num("v", KindFloat),
		Cat("m", KindFloat), // categorical float: mixed int/float grouping
	)
	tab := NewTable(name, schema)
	for i := 0; i < nRows; i++ {
		row := make([]Value, 4)
		if rng.Float64() < nullFrac {
			row[0] = Null()
		} else {
			row[0] = IntValue(int64(rng.Intn(6)))
		}
		if rng.Float64() < nullFrac {
			row[1] = Null()
		} else {
			row[1] = StringValue(string(rune('a' + rng.Intn(4))))
		}
		if rng.Float64() < nullFrac {
			row[2] = Null()
		} else {
			row[2] = FloatValue(rng.Float64() * 10)
		}
		// m mixes IntValue(x) and FloatValue(x) for the same small x: the
		// row path groups them together via AppendKey normalization, and
		// the dictionary must do the same.
		x := rng.Intn(4)
		if rng.Float64() < nullFrac {
			row[3] = Null()
		} else if rng.Intn(2) == 0 {
			row[3] = IntValue(int64(x))
		} else {
			row[3] = FloatValue(float64(x))
		}
		tab.Append(row)
	}
	return tab
}

func tablesEqual(t *testing.T, want, got *Table) {
	t.Helper()
	if !want.Schema.Equal(got.Schema) {
		t.Fatalf("schema mismatch: want %v, got %v", want.Schema, got.Schema)
	}
	if want.NumRows() != got.NumRows() {
		t.Fatalf("row count mismatch: want %d, got %d", want.NumRows(), got.NumRows())
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if !want.Rows[i][j].EqualValue(got.Rows[i][j]) {
				t.Fatalf("row %d col %d: want %v, got %v", i, j, want.Rows[i][j], got.Rows[i][j])
			}
		}
	}
}

func TestColumnarRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := randomTable(t, rng, "rt", 200, 0.3)
	c := ToColumnar(tab)
	if c.NumRows() != tab.NumRows() {
		t.Fatalf("NumRows = %d, want %d", c.NumRows(), tab.NumRows())
	}
	tablesEqual(t, tab, c.ToTable())
	// NULL is always code 0.
	for i := range tab.Rows {
		for j := range tab.Rows[i] {
			if tab.Rows[i][j].IsNull() != (c.Codes(j)[i] == 0) {
				t.Fatalf("row %d col %d: NULL must be code 0", i, j)
			}
			if tab.Rows[i][j].IsNull() != c.IsNullAt(i, j) {
				t.Fatalf("row %d col %d: IsNullAt mismatch", i, j)
			}
		}
	}
}

func TestColumnarDictMergesIntAndFloat(t *testing.T) {
	tab := NewTable("m", NewSchema(Cat("x", KindFloat)))
	tab.AppendValues(IntValue(3))
	tab.AppendValues(FloatValue(3.0))
	tab.AppendValues(FloatValue(3.5))
	tab.AppendValues(IntValue(300)) // a dense slot
	tab.AppendValues(FloatValue(300.0))
	tab.AppendValues(IntValue(1 << 40))
	tab.AppendValues(FloatValue(float64(int64(1) << 40)))
	c := ToColumnar(tab)
	codes := c.Codes(0)
	if codes[0] != codes[1] {
		t.Fatalf("IntValue(3) and FloatValue(3.0) got codes %d and %d", codes[0], codes[1])
	}
	if codes[0] == codes[2] {
		t.Fatal("3 and 3.5 must not share a code")
	}
	if codes[3] != codes[4] {
		t.Fatalf("IntValue(300)/FloatValue(300.0) got codes %d and %d", codes[3], codes[4])
	}
	if codes[5] != codes[6] {
		t.Fatalf("IntValue(1<<40)/FloatValue(1<<40) got codes %d and %d", codes[5], codes[6])
	}
}

// groupRowLists is the row-store grouping oracle: row indices grouped by
// the tuple of the named columns under injective byte-string keys, in
// first-appearance order of each distinct tuple.
func groupRowLists(t *Table, names []string) [][]int {
	idx := t.Schema.MustIndexes(names...)
	ids := make(map[string]int)
	var groups [][]int
	var buf []byte
	for i, r := range t.Rows {
		buf = EncodeKey(buf[:0], r, idx)
		id, ok := ids[string(buf)]
		if !ok {
			id = len(groups)
			ids[string(buf)] = id
			groups = append(groups, nil)
		}
		groups[id] = append(groups[id], i)
	}
	return groups
}

func TestColumnarGroupByMatchesGroupIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		tab := randomTable(t, rng, "g", 50+rng.Intn(150), 0.35)
		c := ToColumnar(tab)
		for _, cols := range [][]string{{"k"}, {"m"}, {"k", "s"}, {"k", "s", "m"}} {
			ordered := groupRowLists(tab, cols)
			idx := tab.Schema.MustIndexes(cols...)
			g, err := noScratch.GroupBy(c, idx, 1)
			if err != nil {
				t.Fatal(err)
			}
			if g.N() != len(ordered) {
				t.Fatalf("cols %v: %d groups, want %d", cols, g.N(), len(ordered))
			}
			// Refining the grouping of all but the last column by the last
			// one is the same grouping.
			prefix, err := noScratch.GroupBy(c, idx[:len(idx)-1], 1)
			if err != nil {
				t.Fatal(err)
			}
			r, err := noScratch.Refine(c, prefix, idx[len(idx)-1])
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(r.Cols, idx) || !slices.Equal(r.Codes, g.Codes) ||
				!slices.Equal(r.Counts, g.Counts) || !slices.Equal(r.First, g.First) {
				t.Fatalf("cols %v: Refine differs from GroupBy", cols)
			}
			// First-appearance order and membership must match the ordered
			// row-path grouping exactly.
			starts, rows := g.RowLists()
			for gid := 0; gid < g.N(); gid++ {
				want := ordered[gid]
				got := rows[starts[gid]:starts[gid+1]]
				if len(want) != len(got) {
					t.Fatalf("cols %v group %d: size %d, want %d", cols, gid, len(got), len(want))
				}
				if int64(len(want)) != g.Counts[gid] {
					t.Fatalf("cols %v group %d: count %d, want %d", cols, gid, g.Counts[gid], len(want))
				}
				for i := range want {
					if int32(want[i]) != got[i] {
						t.Fatalf("cols %v group %d row %d: %d, want %d", cols, gid, i, got[i], want[i])
					}
				}
				if g.First[gid] != int32(want[0]) {
					t.Fatalf("cols %v group %d: first %d, want %d", cols, gid, g.First[gid], want[0])
				}
			}
		}
	}
}

func TestEquiJoinColumnarMatchesRowJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		a := randomTable(t, rng, "A", 40+rng.Intn(120), 0.3)
		b := randomTable(t, rng, "B", 40+rng.Intn(120), 0.3)
		for _, on := range [][]string{{"k"}, {"m"}, {"k", "s"}} {
			want, err := EquiJoin(a, b, on)
			if err != nil {
				t.Fatal(err)
			}
			got, err := EquiJoinColumnar(ToColumnar(a), ToColumnar(b), on, nil, JoinOptions{})
			if err != nil {
				t.Fatal(err)
			}
			tablesEqual(t, want, got.ToTable())

			// A prebuilt index must give the same result.
			idx, err := ToColumnar(b).BuildJoinIndex(1, on...)
			if err != nil {
				t.Fatal(err)
			}
			got2, err := EquiJoinColumnar(ToColumnar(a), ToColumnar(b), on, idx, JoinOptions{})
			if err != nil {
				t.Fatal(err)
			}
			tablesEqual(t, want, got2.ToTable())
		}
	}
}

// A join path's Origin and RowIDs name the base cell every path cell
// reads, renamed columns included: each coded cell is the code its base
// relation stores at that row.
func TestPathOriginReadsBaseCells(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bases := []*Columnar{
		ToColumnar(randomTable(t, rng, "A", 60, 0.2)),
		ToColumnar(randomTable(t, rng, "B", 60, 0.2)),
		ToColumnar(randomTable(t, rng, "C", 60, 0.2)),
	}
	// B joins on k, so its s, v and m are renamed; C joins on s.
	path, err := EquiJoinColumnar(bases[0], bases[1], []string{"k"}, nil, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if path, err = EquiJoinColumnar(path, bases[2], []string{"s"}, nil, JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if path.NumRows() == 0 || !path.Schema().Has("s_r") {
		t.Fatalf("the path %s has %d rows; want rows and a renamed s", path.Schema(), path.NumRows())
	}
	for col := 0; col < path.Schema().Len(); col++ {
		vec, baseCol := path.Origin(col)
		base, rows := bases[vec], path.RowIDs(vec)
		if base.Dict(baseCol) != path.Dict(col) {
			t.Fatalf("column %s: Origin names %s's column %d, another column", path.Schema().Column(col).Name, base.Name, baseCol)
		}
		if path.Dict(col) == nil {
			continue
		}
		for row := 0; row < path.NumRows(); row++ {
			if got, want := path.CodeCol(col).At(row), base.Codes(baseCol)[rows[row]]; got != want {
				t.Fatalf("column %s row %d: code %d, base cell %d", path.Schema().Column(col).Name, row, got, want)
			}
		}
	}
	if vec, col := bases[0].Origin(2); vec != 0 || col != 2 || bases[0].RowIDs(0) != nil {
		t.Fatal("a stored relation does not read its own rows")
	}
}

func TestEquiJoinColumnarMixedIntFloatKeys(t *testing.T) {
	// Build side stores IntValue keys, probe side FloatValue keys: the
	// grouping rule IntValue(3) == FloatValue(3.0) must survive dictionary
	// encoding on both sides of the join.
	a := NewTable("A", NewSchema(Cat("k", KindFloat), Cat("av", KindString)))
	a.AppendValues(FloatValue(1.0), StringValue("x"))
	a.AppendValues(FloatValue(2.0), StringValue("y"))
	a.AppendValues(FloatValue(2.5), StringValue("z"))
	b := NewTable("B", NewSchema(Cat("k", KindInt), Cat("bv", KindString)))
	b.AppendValues(IntValue(2), StringValue("p"))
	b.AppendValues(IntValue(1), StringValue("q"))
	want, err := EquiJoin(a, b, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if want.NumRows() != 2 {
		t.Fatalf("row join found %d rows, want 2", want.NumRows())
	}
	got, err := EquiJoinColumnar(ToColumnar(a), ToColumnar(b), []string{"k"}, nil, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, want, got.ToTable())
}

// selectRows returns a table holding t's rows at idx, in order: the row-store
// reference for FilterRows.
func selectRows(t *Table, idx []int) *Table {
	out := NewTable(t.Name, t.Schema)
	for _, i := range idx {
		out.Rows = append(out.Rows, t.Rows[i])
	}
	return out
}

func TestColumnarFilterRows(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tab := randomTable(t, rng, "f", 100, 0.3)
	c := ToColumnar(tab)
	keep := []int32{0, 5, 5, 99, 42}
	got := c.FilterRows(keep).ToTable()
	want := selectRows(tab, []int{0, 5, 5, 99, 42})
	tablesEqual(t, want, got)
	if c.FilterRows(nil).NumRows() != 0 {
		t.Fatal("FilterRows(nil) must be empty")
	}

	// A join path's rows are gathered through its row ids.
	b := NewTable("g", NewSchema(Cat("k", KindInt), Num("w", KindFloat)))
	for i := 0; i < 20; i++ {
		b.AppendValues(IntValue(int64(i%7)), FloatValue(float64(i)))
	}
	path, err := EquiJoinColumnar(c, ToColumnar(b), []string{"k"}, nil, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := path.NumRows()
	pick := []int{n - 1, 0, n / 2, n / 2}
	keep = make([]int32, len(pick))
	for i, r := range pick {
		keep[i] = int32(r)
	}
	tablesEqual(t, selectRows(path.ToTable(), pick), path.FilterRows(keep).ToTable())
}

func TestToColumnarSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := randomTable(t, rng, "s", 80, 0.3)
	c, err := ToColumnarSubset(tab, []string{"k", "s"}, []string{"v"})
	if err != nil {
		t.Fatal(err)
	}
	ki := tab.Schema.Index("k")
	if c.Codes(ki) == nil {
		t.Fatal("coded column k missing codes")
	}
	vi := tab.Schema.Index("v")
	if c.Codes(vi) != nil {
		t.Fatal("numeric column v should not be coded")
	}
	// AppendNumeric must match the row-path extraction (non-NULLs in order).
	var want []float64
	for _, r := range tab.Rows {
		if !r[vi].IsNull() {
			want = append(want, r[vi].Num())
		}
	}
	got := c.AppendNumeric(nil, vi, nil)
	if len(want) != len(got) {
		t.Fatalf("numeric length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("numeric[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := ToColumnarSubset(tab, []string{"nope"}, nil); err == nil {
		t.Fatal("unknown coded column should error")
	}
	if _, err := ToColumnarSubset(tab, nil, []string{"nope"}); err == nil {
		t.Fatal("unknown numeric column should error")
	}
}

func TestEquiJoinPreallocUnchanged(t *testing.T) {
	// Guard for the EquiJoin preallocation rewrite: duplicate keys on both
	// sides (bag semantics) and no-match rows.
	a := NewTable("A", NewSchema(Cat("k", KindInt), Cat("av", KindInt)))
	b := NewTable("B", NewSchema(Cat("k", KindInt), Cat("bv", KindInt)))
	for i := 0; i < 6; i++ {
		a.AppendValues(IntValue(int64(i%3)), IntValue(int64(i)))
		b.AppendValues(IntValue(int64(i%2)), IntValue(int64(10+i)))
	}
	j, err := EquiJoin(a, b, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	// k=0: 2 a-rows × 3 b-rows; k=1: 2 × 3; k=2: 2 × 0.
	if j.NumRows() != 12 {
		t.Fatalf("join rows = %d, want 12", j.NumRows())
	}
	if got := cap(j.Rows); got != 12 {
		t.Fatalf("rows capacity = %d, want exactly 12 (preallocated)", got)
	}
}
