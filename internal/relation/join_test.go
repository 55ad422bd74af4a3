package relation

import (
	"slices"
	"testing"
	"testing/quick"
)

// table3D1 and table3D2 reproduce the paper's Table 3 (shrunk: the paper's
// D1 has 1000 rows of which 996 are (a1,b1,c*); we keep the 5 rows that
// survive the join, plus two of the b1 rows so quality semantics stay
// interesting).
func table3D1() *Table {
	t := NewTable("D1", NewSchema(Cat("A", KindString), Cat("B", KindString), Cat("C", KindString)))
	rows := [][3]string{
		{"a1", "b1", "c4"},
		{"a1", "b1", "c5"},
		{"a1", "b2", "c1"},
		{"a1", "b2", "c2"},
		{"a1", "b3", "c3"},
	}
	for _, r := range rows {
		t.AppendValues(StringValue(r[0]), StringValue(r[1]), StringValue(r[2]))
	}
	return t
}

func table3D2() *Table {
	t := NewTable("D2", NewSchema(Cat("C", KindString), Cat("D", KindString), Cat("E", KindString)))
	rows := [][3]string{
		{"c1", "d1", "e1"},
		{"c1", "d1", "e1"},
		{"c2", "d1", "e2"},
		{"c3", "d1", "e2"},
		{"c4", "d1", "e2"},
	}
	for _, r := range rows {
		t.AppendValues(StringValue(r[0]), StringValue(r[1]), StringValue(r[2]))
	}
	return t
}

func TestEquiJoinTable3(t *testing.T) {
	j, err := EquiJoin(table3D1(), table3D2(), []string{"C"})
	if err != nil {
		t.Fatal(err)
	}
	// c1 matches 1 D1-row × 2 D2-rows = 2, c2 → 1, c3 → 1, c4 → 1; c5 none.
	if j.NumRows() != 5 {
		t.Fatalf("join rows = %d, want 5", j.NumRows())
	}
	want := []string{"A", "B", "C", "D", "E"}
	if got := j.Schema.Names(); len(got) != 5 {
		t.Fatalf("schema = %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("schema = %v, want %v", got, want)
			}
		}
	}
}

func TestEquiJoinNoSharedErrors(t *testing.T) {
	if _, err := EquiJoin(table3D1(), table3D2(), []string{"Z"}); err == nil {
		t.Fatal("join on unknown attribute should fail")
	}
	if _, err := EquiJoin(table3D1(), table3D2(), nil); err == nil {
		t.Fatal("join with no attributes should fail")
	}
}

func TestEquiJoinRenamesCollidingColumns(t *testing.T) {
	a := NewTable("a", NewSchema(Cat("k", KindString), Cat("x", KindString)))
	b := NewTable("b", NewSchema(Cat("k", KindString), Cat("x", KindString)))
	a.AppendValues(StringValue("1"), StringValue("ax"))
	b.AppendValues(StringValue("1"), StringValue("bx"))
	j, err := EquiJoin(a, b, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	names := j.Schema.Names()
	if len(names) != 3 || names[2] != "x_r" {
		t.Fatalf("schema = %v, want [k x x_r]", names)
	}
	if j.Rows[0][2] != StringValue("bx") {
		t.Fatalf("renamed column value = %v", j.Rows[0][2])
	}
}

func TestFullOuterJoin(t *testing.T) {
	j, err := fullOuterJoin(table3D1(), table3D2(), []string{"C"})
	if err != nil {
		t.Fatal(err)
	}
	// Matched: 5 rows (as inner join). Left-unmatched: c5 (1 row).
	// Right-unmatched: none (c1,c2,c3,c4 all matched).
	if j.NumRows() != 6 {
		t.Fatalf("outer join rows = %d, want 6", j.NumRows())
	}
	// The right-side C column must be kept (renamed C_r).
	if !j.Schema.Has("C_r") {
		t.Fatalf("outer join schema missing C_r: %v", j.Schema.Names())
	}
	nulls := 0
	cr := j.Schema.Index("C_r")
	for _, r := range j.Rows {
		if r[cr].IsNull() {
			nulls++
		}
	}
	if nulls != 1 {
		t.Fatalf("unmatched-left rows = %d, want 1", nulls)
	}
}

func TestOuterJoinCountsMatchesMaterialized(t *testing.T) {
	a, b := table3D1(), table3D2()
	joint, left, right, err := OuterJoinCounts(ToColumnar(a), ToColumnar(b), []string{"C"})
	if err != nil {
		t.Fatal(err)
	}
	j, err := fullOuterJoin(a, b, []string{"C"})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(xs []int64) (s int64) {
		for _, x := range xs {
			s += x
		}
		return s
	}
	for name, xs := range map[string][]int64{"joint": joint, "left": left, "right": right} {
		if sum(xs) != int64(j.NumRows()) {
			t.Fatalf("%s total %d != outer join rows %d", name, sum(xs), j.NumRows())
		}
	}
	// No b-only keys; a's keys in order c1 (matched twice), c2, c3, c4
	// matched once, c5 unmatched (its right side is the NULL key).
	want := []int64{2, 1, 1, 1, 1}
	if !slices.Equal(joint, want) || !slices.Equal(left, want) || !slices.Equal(right, want) {
		t.Fatalf("counts = %v / %v / %v, want %v for all three", joint, left, right, want)
	}
}

func TestJoinPath(t *testing.T) {
	d3 := NewTable("D3", NewSchema(Cat("E", KindString), Cat("F", KindString)))
	d3.AppendValues(StringValue("e1"), StringValue("f1"))
	d3.AppendValues(StringValue("e2"), StringValue("f2"))

	j, err := JoinPath([]PathStep{
		{Table: table3D1()},
		{Table: table3D2(), On: []string{"C"}},
		{Table: d3, On: []string{"E"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 5 {
		t.Fatalf("path join rows = %d, want 5", j.NumRows())
	}
	if !j.Schema.Has("F") {
		t.Fatalf("path join schema missing F: %v", j.Schema.Names())
	}
	if _, err := JoinPath(nil); err == nil {
		t.Fatal("empty path should error")
	}
}

// Property: inner join row count equals sum over shared keys of
// countA(k)*countB(k), and outer join count adds unmatched rows.
func TestQuickJoinCounts(t *testing.T) {
	f := func(aKeys, bKeys []uint8) bool {
		a := NewTable("a", NewSchema(Cat("k", KindInt), Cat("pa", KindInt)))
		b := NewTable("b", NewSchema(Cat("k", KindInt), Cat("pb", KindInt)))
		ca := map[int64]int64{}
		cb := map[int64]int64{}
		for i, k := range aKeys {
			kv := int64(k % 8)
			a.AppendValues(IntValue(kv), IntValue(int64(i)))
			ca[kv]++
		}
		for i, k := range bKeys {
			kv := int64(k % 8)
			b.AppendValues(IntValue(kv), IntValue(int64(i)))
			cb[kv]++
		}
		var wantInner, unmatchedA, unmatchedB int64
		for k, n := range ca {
			if m, ok := cb[k]; ok {
				wantInner += n * m
			} else {
				unmatchedA += n
			}
		}
		for k, m := range cb {
			if _, ok := ca[k]; !ok {
				unmatchedB += m
			}
		}
		inner, err := EquiJoin(a, b, []string{"k"})
		if err != nil {
			return false
		}
		outer, err := fullOuterJoin(a, b, []string{"k"})
		if err != nil {
			return false
		}
		return int64(inner.NumRows()) == wantInner &&
			int64(outer.NumRows()) == wantInner+unmatchedA+unmatchedB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
