package relation

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// exampleD builds the instance D of the paper's Example 2.1 / Table 2:
// five rows over (A, B) with FD A → B violated by t3, t4.
func exampleD() *Table {
	t := NewTable("D", NewSchema(Cat("A", KindString), Cat("B", KindString)))
	for _, r := range [][2]string{
		{"a1", "b1"}, {"a1", "b1"}, {"a1", "b2"}, {"a1", "b3"}, {"a2", "b2"},
	} {
		t.AppendValues(StringValue(r[0]), StringValue(r[1]))
	}
	return t
}

func TestAppendAndShape(t *testing.T) {
	d := exampleD()
	if d.NumRows() != 5 || d.NumCols() != 2 {
		t.Fatalf("shape = %dx%d, want 5x2", d.NumRows(), d.NumCols())
	}
}

func TestAppendWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on width mismatch")
		}
	}()
	exampleD().AppendValues(StringValue("only-one"))
}

func TestProject(t *testing.T) {
	d := exampleD()
	p, err := d.Project("B")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCols() != 1 || p.NumRows() != 5 {
		t.Fatalf("projection shape wrong: %v", p)
	}
	if p.Rows[2][0] != StringValue("b2") {
		t.Fatalf("projection value wrong: %v", p.Rows[2][0])
	}
	if _, err := d.Project("Z"); err == nil {
		t.Fatal("projecting unknown column should fail")
	}
	if _, err := d.Project("A", "A"); err == nil {
		t.Fatal("projecting a column twice should fail, not panic")
	}
}

func TestProjectReorders(t *testing.T) {
	d := exampleD()
	p := d.MustProject("B", "A")
	if p.Schema.Column(0).Name != "B" || p.Schema.Column(1).Name != "A" {
		t.Fatalf("column order not honored: %v", p.Schema.Names())
	}
	if p.Rows[0][0] != StringValue("b1") || p.Rows[0][1] != StringValue("a1") {
		t.Fatalf("row values not reordered: %v", p.Rows[0])
	}
	// Rows share one slab, so appending to a row must not reach the next.
	_ = append(p.Rows[0], IntValue(9))
	if p.Rows[1][0] != StringValue("b1") {
		t.Fatalf("appending to row 0 overwrote row 1: %v", p.Rows[1])
	}
}

func TestColumn(t *testing.T) {
	d := exampleD()
	col, err := d.Column("A")
	if err != nil {
		t.Fatal(err)
	}
	if len(col) != 5 || col[4] != StringValue("a2") {
		t.Fatalf("Column wrong: %v", col)
	}
	if _, err := d.Column("missing"); err == nil {
		t.Fatal("unknown column should error")
	}
}

func TestGroupIndices(t *testing.T) {
	d := ToColumnar(exampleD())
	g, err := noScratch.GroupBy(d, d.Schema().MustIndexes("A"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 {
		t.Fatalf("groups = %d, want 2", g.N())
	}
	if want := []int64{4, 1}; !reflect.DeepEqual(g.Counts, want) {
		t.Fatalf("group sizes = %v, want %v", g.Counts, want)
	}
}

func TestPartitionExample21(t *testing.T) {
	// Example 2.1 of the paper: π_A has classes {t1..t4}, {t5};
	// π_AB has classes {t1,t2}, {t3}, {t4}, {t5}.
	c := ToColumnar(exampleD())
	pa, err := noScratch.GroupBy(c, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint32{0, 0, 0, 0, 1}; !reflect.DeepEqual(pa.Codes, want) {
		t.Fatalf("π_A classes = %v, want %v", pa.Codes, want)
	}
	pab, err := noScratch.GroupBy(c, []int{0, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint32{0, 0, 1, 2, 3}; !reflect.DeepEqual(pab.Codes, want) {
		t.Fatalf("π_AB classes = %v, want %v", pab.Codes, want)
	}
	if want := []int64{2, 1, 1, 1}; !reflect.DeepEqual(pab.Counts, want) {
		t.Fatalf("π_AB class sizes = %v, want %v", pab.Counts, want)
	}
}

func TestPartitionRefineAgreesWithDirect(t *testing.T) {
	c := ToColumnar(exampleD())
	pa, err := noScratch.GroupBy(c, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := noScratch.Refine(c, pa, 1)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := noScratch.GroupBy(c, []int{0, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refined, direct) {
		t.Fatalf("refined %+v != direct %+v", refined, direct)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	d := exampleD()
	c := d.Clone()
	c.Rows[0][0] = StringValue("zzz")
	if d.Rows[0][0] == StringValue("zzz") {
		t.Fatal("Clone shares row storage")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := NewTable("mix", NewSchema(
		Cat("s", KindString), Cat("i", KindInt), Num("f", KindFloat),
	))
	d.AppendValues(StringValue("x"), IntValue(4), FloatValue(1.25))
	d.AppendValues(Null(), IntValue(-1), Null())

	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("mix", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Schema.Equal(d.Schema) {
		t.Fatalf("schema mismatch: %v vs %v", got.Schema, d.Schema)
	}
	if got.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", got.NumRows())
	}
	for i := range d.Rows {
		for j := range d.Rows[i] {
			if got.Rows[i][j] != d.Rows[i][j] {
				t.Errorf("cell (%d,%d): %v != %v", i, j, got.Rows[i][j], d.Rows[i][j])
			}
		}
	}
}

func TestSchemaBasics(t *testing.T) {
	s := NewSchema(Cat("a", KindString), Num("b", KindFloat))
	if s.Len() != 2 || !s.Has("a") || s.Has("z") || s.Index("b") != 1 {
		t.Fatal("schema lookup broken")
	}
	if got := s.Names(); got[0] != "a" || got[1] != "b" {
		t.Fatalf("Names = %v", got)
	}
	if !strings.Contains(s.String(), "float") {
		t.Fatalf("schema String() missing kind: %s", s)
	}
}

func TestSharedAttrs(t *testing.T) {
	a := NewSchema(Cat("x", KindString), Cat("y", KindString), Cat("z", KindString))
	b := NewSchema(Cat("y", KindString), Cat("z", KindString), Cat("w", KindString))
	got := SharedAttrs(a, b)
	if len(got) != 2 || got[0] != "y" || got[1] != "z" {
		t.Fatalf("SharedAttrs = %v", got)
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate column should panic")
		}
	}()
	NewSchema(Cat("a", KindString), Cat("a", KindInt))
}

func TestTableStringAndMustIndexes(t *testing.T) {
	d := exampleD()
	s := d.String()
	if !strings.Contains(s, "D") || !strings.Contains(s, "5 rows") {
		t.Fatalf("Table.String = %q", s)
	}
	idx := d.Schema.MustIndexes("B", "A")
	if len(idx) != 2 || idx[0] != 1 || idx[1] != 0 {
		t.Fatalf("MustIndexes = %v", idx)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustIndexes with unknown column should panic")
		}
	}()
	d.Schema.MustIndexes("nope")
}
