package relation

import (
	"bytes"
	"fmt"
	"io"
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

// sameTable fails unless got and want have the same name, schema (names,
// kinds, categorical flags) and cells.
func sameTable(t testing.TB, got, want *Table) {
	t.Helper()
	if got.Name != want.Name {
		t.Fatalf("name = %q, want %q", got.Name, want.Name)
	}
	if !got.Schema.Equal(want.Schema) {
		t.Fatalf("schema = %v, want %v", got.Schema.Columns(), want.Schema.Columns())
	}
	sameRows(t, got, want)
}

// writeBoth returns d's encoding by WriteCSV and by the encoding/csv
// oracle.
func writeBoth(t testing.TB, d *Table) (got, want []byte) {
	t.Helper()
	var g, w bytes.Buffer
	if err := d.WriteCSV(&g); err != nil {
		t.Fatal(err)
	}
	if err := oracleWriteCSV(d, &w); err != nil {
		t.Fatal(err)
	}
	return g.Bytes(), w.Bytes()
}

// csvCodecTables covers every quoting rule of encoding/csv's Writer, every
// kind, NULL in every position and the lone-NULL row.
func csvCodecTables() []*Table {
	mixed := NewTable("mixed", NewSchema(
		Cat("s", KindString), Num("i", KindInt), Cat("c", KindInt),
		Num("f", KindFloat), Num("n", KindNull), Cat("price:usd", KindString),
	))
	mixed.AppendValues(StringValue("plain"), IntValue(-7), IntValue(3), FloatValue(1.25), Null(), StringValue("a,b"))
	mixed.AppendValues(StringValue(`say "hi"`), Null(), IntValue(0), FloatValue(math.Inf(-1)), Null(), StringValue("two\nlines"))
	mixed.AppendValues(Null(), IntValue(1<<40), Null(), Null(), Null(), StringValue(" lead"))
	mixed.AppendValues(StringValue(`\.`), IntValue(math.MinInt64), IntValue(math.MaxInt64), FloatValue(math.Copysign(0, -1)), Null(), StringValue("cr\rlf\r\n"))
	mixed.AppendValues(StringValue("\u00a0nbsp"), IntValue(1), IntValue(2), FloatValue(1e-300), Null(), StringValue("\tтаб"))
	mixed.AppendValues(StringValue("\xff\xfe"), IntValue(1), IntValue(2), FloatValue(123456789.125), Null(), StringValue(`""`))
	single := NewTable("single", NewSchema(Num("v", KindFloat)))
	single.AppendValues(FloatValue(math.NaN()))
	single.AppendValues(Null())
	single.AppendValues(FloatValue(2))
	lone := NewTable("lone", NewSchema(Cat("s", KindString)))
	lone.AppendValues(StringValue(""))
	lone.AppendValues(StringValue("x"))
	lone.AppendValues(Null())
	quotedHeader := NewTable("quoted header", NewSchema(Cat("a,b", KindString), Num(" c", KindInt), Num(`d"e`, KindFloat)))
	quotedHeader.AppendValues(StringValue("x"), IntValue(1), FloatValue(0.5))
	empty := NewTable("empty", NewSchema(Num("k", KindInt), Cat("v", KindString)))
	return []*Table{mixed, single, lone, quotedHeader, empty, plainTable(5000)}
}

// plainTable is a sample-shaped table (int keys, a float, low-cardinality
// labels) whose encoding needs no quotes, so DecodeCSV parses it in one
// pass; at 5000 rows its encoding passes WriteCSV's flush length.
func plainTable(n int) *Table {
	d := NewTable("plain", NewSchema(Num("k", KindInt), Num("x", KindFloat), Cat("label", KindString), Cat("code", KindInt)))
	for i := 0; i < n; i++ {
		label := StringValue(fmt.Sprintf("L%02d", i%7))
		if i%11 == 0 {
			label = Null()
		}
		d.AppendValues(IntValue(int64(i)), FloatValue(float64(i)/100+0.25), label, IntValue(int64(i%3-1)))
	}
	return d
}

// WriteCSV writes exactly the oracle's bytes, and DecodeCSV reads them
// back to the table the oracle reads.
func TestCSVCodecMatchesOracle(t *testing.T) {
	for _, d := range csvCodecTables() {
		got, want := writeBoth(t, d)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: WriteCSV = %q, oracle %q", d.Name, got, want)
		}
		fromOracle, err := oracleReadCSV(d.Name, bytes.NewReader(want))
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeCSV(d.Name, want)
		if err != nil {
			t.Fatalf("%s: DecodeCSV: %v", d.Name, err)
		}
		sameTable(t, decoded, fromOracle)
	}
	var buf bytes.Buffer
	if err := plainTable(5000).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= csvFlushBytes || bytes.IndexByte(buf.Bytes(), '"') >= 0 {
		t.Fatalf("plain table encodes to %d bytes (quotes: %v); want an unquoted body past %d",
			buf.Len(), bytes.IndexByte(buf.Bytes(), '"') >= 0, csvFlushBytes)
	}
}

// The one-pass decoder rejects what the oracle rejects: ragged records in
// either direction, bad numbers, and bodies without a header.
func TestDecodeCSVRejectsWhatOracleRejects(t *testing.T) {
	for _, in := range []string{
		"",
		"\n\n",
		"a:int,b:int\n1\n",
		"a:int,b:int\n1,2,3\n",
		"a:int,b:int\n1,2\n\n3\n",
		"a:int\nx\n",
		"a:int\n99999999999999999999\n",
		"a:float\n1.2.3\n",
		"a:float,b:string\n1e400,x\n",
		"a:int,b:int\n1,2\n,\n,,\n",
	} {
		_, want := oracleReadCSV("t", strings.NewReader(in))
		_, got := DecodeCSV("t", []byte(in))
		if got == nil || want == nil {
			t.Errorf("DecodeCSV(%q) error %v, oracle %v; want both to reject it", in, got, want)
		}
	}
}

// Nothing DecodeCSV returns aliases its input: overwriting the bytes after
// the decode changes no name and no value, on both the one-pass and the
// encoding/csv path.
func TestDecodeCSVDoesNotAliasInput(t *testing.T) {
	for _, d := range csvCodecTables() {
		var buf bytes.Buffer
		if err := d.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		got, err := DecodeCSV(d.Name, data)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleReadCSV(d.Name, bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			data[i] = 'Z'
		}
		sameTable(t, got, want)
	}
}

// A writer error reaches WriteCSV's caller, at the final write and at a
// flush.
func TestWriteCSVReportsWriterErrors(t *testing.T) {
	for _, d := range []*Table{csvCodecTables()[0], plainTable(5000)} {
		if err := d.WriteCSV(failingWriter{}); err == nil {
			t.Fatalf("%s: WriteCSV to a failing writer succeeded", d.Name)
		}
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// FuzzReadCSV: on any bytes, DecodeCSV rejects exactly what the
// encoding/csv oracle rejects and otherwise returns the oracle's table;
// WriteCSV of that table is the oracle writer's bytes, and a fixed point
// of WriteCSV → ReadCSV.
func FuzzReadCSV(f *testing.F) {
	for _, in := range []string{
		"a:int,a:int\n1,2\n",
		",x:int\n1,2\n",
		":int\n1\n",
		"a:int,b:string:cat\n1,x\n\n2,\n,y",
		"a:int,b:float\n1\n",
	} {
		f.Add([]byte(in))
	}
	for _, d := range csvCodecTables()[:5] {
		var buf bytes.Buffer
		if err := d.WriteCSV(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		want, werr := oracleReadCSV("fuzz", bytes.NewReader(in))
		first, err := DecodeCSV("fuzz", in)
		if (err == nil) != (werr == nil) {
			t.Fatalf("DecodeCSV error %v, oracle error %v", err, werr)
		}
		if err != nil {
			return
		}
		sameTable(t, first, want)
		got, wantBytes := writeBoth(t, first)
		if !bytes.Equal(got, wantBytes) {
			t.Fatalf("WriteCSV = %q, oracle %q", got, wantBytes)
		}
		second := csvRoundTrip(t, first)
		if !second.Schema.Equal(first.Schema) {
			t.Fatalf("schema changed across a round trip: %v vs %v", second.Schema.Columns(), first.Schema.Columns())
		}
		sameRows(t, second, first)
	})
}
