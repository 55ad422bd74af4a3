package relation

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// ReadCSV parses bytes from outside the program (marketplace responses,
// journal sample files): a malformed header must be an error, not a panic.
func TestReadCSVMalformedHeaderErrors(t *testing.T) {
	for _, in := range []string{
		"a:int,a:int\n1,2\n",   // duplicate column
		",x:int\n1,2\n",        // empty name, no kind
		":int\n1\n",            // empty name with a kind
		"a:cat\nx\n",           // :cat without a kind
		"a:usd\nx\n",           // unknown kind
		"a:int:cat,a:int\n1,2", // duplicate column, one categorical
	} {
		got, err := ReadCSV("t", strings.NewReader(in))
		if err == nil {
			t.Errorf("ReadCSV(%q) = %v, want an error", in, got.Schema)
		}
	}
}

// A seller column whose name contains ':' must cross the wire: the
// ":kind[:cat]" suffixes are parsed from the right.
func TestCSVRoundTripColonNames(t *testing.T) {
	d := NewTable("prices", NewSchema(
		Cat("price:usd", KindString), Num("rate:eur:float", KindFloat), Cat("x:cat", KindInt),
	))
	d.AppendValues(StringValue("ten"), FloatValue(0.5), IntValue(3))
	got := csvRoundTrip(t, d)
	if !got.Schema.Equal(d.Schema) {
		t.Fatalf("schema = %v, want %v", got.Schema.Columns(), d.Schema.Columns())
	}
	sameRows(t, got, d)
}

// A single-column table's NULL row writes an empty field, which csv.Reader
// would skip as a blank line; it must still round-trip.
func TestCSVRoundTripSingleColumnNull(t *testing.T) {
	d := NewTable("one", NewSchema(Cat("k", KindInt)))
	d.AppendValues(IntValue(1))
	d.AppendValues(Null())
	d.AppendValues(IntValue(2))
	got := csvRoundTrip(t, d)
	if got.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", got.NumRows())
	}
	sameRows(t, got, d)
}

func csvRoundTrip(t testing.TB, d *Table) *Table {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(d.Name, &buf)
	if err != nil {
		t.Fatalf("re-reading %q: %v", buf.String(), err)
	}
	return got
}

// sameRows compares cell by cell; floats compare by bits, so NaN equals
// itself.
func sameRows(t testing.TB, got, want *Table) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("rows = %d, want %d", got.NumRows(), want.NumRows())
	}
	for i := range want.Rows {
		for j, w := range want.Rows[i] {
			g := got.Rows[i][j]
			same := g == w
			if g.Kind == KindFloat && w.Kind == KindFloat {
				same = math.Float64bits(g.F) == math.Float64bits(w.F)
			}
			if !same {
				t.Fatalf("cell (%d,%d) = %#v, want %#v", i, j, g, w)
			}
		}
	}
}

// FuzzReadCSV: ReadCSV never panics, and whatever it accepts is a fixed
// point of WriteCSV → ReadCSV.
func FuzzReadCSV(f *testing.F) {
	for _, in := range []string{
		"a:int,a:int\n1,2\n",
		",x:int\n1,2\n",
		":int\n1\n",
	} {
		f.Add([]byte(in))
	}
	mixed := NewTable("mixed", NewSchema(
		Cat("s", KindString), Num("i", KindInt), Cat("c", KindInt),
		Num("f", KindFloat), Num("n", KindNull), Cat("price:usd", KindString),
	))
	mixed.AppendValues(StringValue("plain"), IntValue(-7), IntValue(3), FloatValue(1.25), Null(), StringValue("a,b"))
	mixed.AppendValues(StringValue(`say "hi"`), Null(), IntValue(0), FloatValue(math.Inf(-1)), Null(), StringValue("two\nlines"))
	mixed.AppendValues(Null(), IntValue(1<<40), Null(), Null(), Null(), StringValue(" lead"))
	single := NewTable("single", NewSchema(Num("v", KindFloat)))
	single.AppendValues(FloatValue(math.NaN()))
	single.AppendValues(Null())
	for _, d := range []*Table{mixed, single} {
		var buf bytes.Buffer
		if err := d.WriteCSV(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		first, err := ReadCSV("fuzz", bytes.NewReader(in))
		if err != nil {
			return
		}
		second := csvRoundTrip(t, first)
		if !second.Schema.Equal(first.Schema) {
			t.Fatalf("schema changed across a round trip: %v vs %v", second.Schema.Columns(), first.Schema.Columns())
		}
		sameRows(t, second, first)
	})
}
