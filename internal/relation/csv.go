package relation

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// The CSV codec writes exactly the bytes encoding/csv's Writer writes for
// the same records, and reads back exactly the tables encoding/csv's Reader
// yields. WriteCSV appends each row into one buffer without a csv.Writer.
// DecodeCSV parses a body that holds no '"' and no '\r' in one pass; every
// other body goes through encoding/csv. The encoding/csv formulations live
// on as the test oracles in csv_oracle_test.go.

// csvFlushBytes is the buffered length at which WriteCSV hands its buffer
// to the writer. A body up to this size reaches the writer in one Write,
// so a bytes.Buffer destination is allocated once, at its final size.
const csvFlushBytes = 64 << 10

// csvBufs recycles WriteCSV's row buffers across calls.
var csvBufs = sync.Pool{New: func() any { return new([]byte) }}

// WriteCSV serializes the table to w. The header encodes each column as
// "name:kind[:cat]" so ReadCSV can round-trip types exactly.
func (t *Table) WriteCSV(w io.Writer) error {
	bp := csvBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	defer func() { *bp = buf; csvBufs.Put(bp) }()
	for i := 0; i < t.Schema.Len(); i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		c := t.Schema.Column(i)
		h := c.Name + ":" + c.Kind.String()
		if c.Categorical {
			h += ":cat"
		}
		buf = appendCSVField(buf, h)
	}
	buf = append(buf, '\n')
	for _, row := range t.Rows {
		if len(row) == 1 && (row[0].Kind == KindNull || row[0].Kind == KindString && row[0].S == "") {
			// A lone NULL would be a blank line, which readers skip:
			// quote it so the row survives the round trip.
			buf = append(buf, `""`+"\n"...)
		} else {
			buf = appendCSVRow(buf, row)
		}
		if len(buf) >= csvFlushBytes {
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("relation: write csv: %w", err)
			}
			buf = buf[:0]
		}
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("relation: write csv: %w", err)
	}
	return nil
}

// appendCSVRow appends one record and its '\n'. Numbers are formatted in
// place as Value.String formats them, and NULL writes nothing.
func appendCSVRow(buf []byte, row []Value) []byte {
	for i, v := range row {
		if i > 0 {
			buf = append(buf, ',')
		}
		switch v.Kind {
		case KindNull:
		case KindInt:
			buf = strconv.AppendInt(buf, v.I, 10)
		case KindFloat:
			buf = strconv.AppendFloat(buf, v.F, 'g', -1, 64)
		default:
			buf = appendCSVField(buf, v.String())
		}
	}
	return append(buf, '\n')
}

// appendCSVField appends s, quoted where encoding/csv's Writer quotes it (a
// comma, '"', '\r' or '\n' inside, a leading space, or the field `\.`) and
// with '"' doubled.
func appendCSVField(buf []byte, s string) []byte {
	if !csvNeedsQuotes(s) {
		return append(buf, s...)
	}
	buf = append(buf, '"')
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			break
		}
		buf = append(buf, s[:i+1]...)
		buf = append(buf, '"')
		s = s[i+1:]
	}
	buf = append(buf, s...)
	return append(buf, '"')
}

// csvNeedsQuotes is encoding/csv's fieldNeedsQuotes for the comma
// delimiter.
func csvNeedsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` {
		return true
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == ',' || c == '"' || c == '\r' || c == '\n' {
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
}

// ReadCSV reads r to its end and parses the table with DecodeCSV. Its
// input may come from outside the program (marketplace responses, journal
// sample files), so a malformed header — an unknown kind, an empty or
// duplicate column name — is an error, never a panic.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("relation: read csv: %w", err)
	}
	return DecodeCSV(name, data)
}

// DecodeCSV parses a table previously written by WriteCSV from data. It
// accepts exactly the inputs encoding/csv's Reader reads into a well-formed
// table, and nothing it returns aliases data: the caller may reuse or
// overwrite data afterwards.
//
// A body without '"' and '\r' needs none of encoding/csv's quoting rules:
// its records are its non-empty lines and its fields are split on ','. It
// is parsed in one pass, its rows are carved from one slab, and each string
// column allocates each distinct value once. Every other body goes through
// encoding/csv.
func DecodeCSV(name string, data []byte) (*Table, error) {
	if bytes.IndexByte(data, '"') >= 0 || bytes.IndexByte(data, '\r') >= 0 {
		return decodeQuotedCSV(name, data)
	}
	for len(data) > 0 && data[0] == '\n' {
		data = data[1:]
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("relation: read csv header: %w", io.EOF)
	}
	header := data
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		header, data = data[:i], data[i+1:]
	} else {
		data = nil
	}
	var names []string
	for _, h := range bytes.Split(header, []byte{','}) {
		names = append(names, string(h))
	}
	t, err := newCSVTable(name, names)
	if err != nil {
		return nil, err
	}
	if err := decodePlainRows(t, data); err != nil {
		return nil, err
	}
	return t, nil
}

// decodePlainRows appends to t the records of data, a body after its
// header line that holds no '"' and no '\r'.
func decodePlainRows(t *Table, data []byte) error {
	cols := t.Schema.cols
	nc := len(cols)
	// A record of nc fields takes at least nc bytes (its commas and its
	// newline), which bounds the slab on hostile input.
	rows := min(bytes.Count(data, []byte{'\n'})+1, len(data)/nc+1)
	slab := make([]Value, rows*nc)
	t.Rows = make([][]Value, 0, rows)
	intern := make([]map[string]string, nc)
	for c, col := range cols {
		if col.Kind == KindString {
			intern[c] = make(map[string]string)
		}
	}
	for pos := 0; pos < len(data); {
		if data[pos] == '\n' {
			pos++ // blank lines are no records
			continue
		}
		row := slab[:nc:nc]
		slab = slab[nc:]
		for c := 0; ; c++ {
			if c == nc {
				return fmt.Errorf("relation: read csv row %d: %w", len(t.Rows)+1, csv.ErrFieldCount)
			}
			end := pos
			for end < len(data) && data[end] != ',' && data[end] != '\n' {
				end++
			}
			if f := data[pos:end]; len(f) > 0 { // an empty field is NULL, the zero Value
				switch cols[c].Kind {
				case KindString:
					s, ok := intern[c][string(f)]
					if !ok {
						s = string(f)
						intern[c][s] = s
					}
					row[c] = Value{Kind: KindString, S: s}
				case KindInt:
					i, ok := parseDecimal(f)
					if !ok {
						var err error
						if i, err = strconv.ParseInt(string(f), 10, 64); err != nil {
							return parseFieldError(f, KindInt)
						}
					}
					row[c] = Value{Kind: KindInt, I: i}
				case KindFloat:
					x, err := strconv.ParseFloat(string(f), 64)
					if err != nil {
						return parseFieldError(f, KindFloat)
					}
					row[c] = FloatValue(x)
				}
			}
			pos = end + 1
			if end == len(data) || data[end] == '\n' {
				if c != nc-1 {
					return fmt.Errorf("relation: read csv row %d: %w", len(t.Rows)+1, csv.ErrFieldCount)
				}
				break
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return nil
}

// parseDecimal parses the common form of an int field, an optional '-'
// and at most 18 digits, which cannot overflow; ok is false for every
// other field, which strconv.ParseInt then decides.
func parseDecimal(f []byte) (i int64, ok bool) {
	neg := f[0] == '-'
	if neg {
		f = f[1:]
	}
	if len(f) == 0 || len(f) > 18 {
		return 0, false
	}
	for _, b := range f {
		if b < '0' || b > '9' {
			return 0, false
		}
		i = i*10 + int64(b-'0')
	}
	if neg {
		i = -i
	}
	return i, true
}

// parseFieldError is the error ParseValue reports for the field f.
func parseFieldError(f []byte, kind Kind) error {
	_, err := ParseValue(string(f), kind)
	return err
}

// decodeQuotedCSV is DecodeCSV for bodies that may use encoding/csv's
// quoting: it parses them with a csv.Reader.
func decodeQuotedCSV(name string, data []byte) (*Table, error) {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: read csv header: %w", err)
	}
	t, err := newCSVTable(name, header)
	if err != nil {
		return nil, err
	}
	cols := t.Schema.cols
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, fmt.Errorf("relation: read csv row: %w", err)
		}
		row := make([]Value, len(cols))
		for i, s := range rec {
			if row[i], err = ParseValue(s, cols[i].Kind); err != nil {
				return nil, err
			}
		}
		t.Rows = append(t.Rows, row)
	}
}

// newCSVTable returns the empty table named name whose schema the header
// fields describe.
func newCSVTable(name string, header []string) (*Table, error) {
	cols := make([]Column, len(header))
	for i, h := range header {
		var err error
		if cols[i], err = parseHeaderColumn(h); err != nil {
			return nil, err
		}
	}
	schema, err := newSchema(cols...)
	if err != nil {
		return nil, err
	}
	return NewTable(name, schema), nil
}

// parseHeaderColumn parses one "name[:kind[:cat]]" header field. The
// suffixes are taken from the right, so a name may itself contain ':'
// ("price:usd:string:cat" is the categorical string column "price:usd"); a
// field without ':' is a string column.
func parseHeaderColumn(h string) (Column, error) {
	i := strings.LastIndexByte(h, ':')
	if i < 0 {
		return Column{Name: h, Kind: KindString}, nil
	}
	c := Column{}
	if h[i+1:] == "cat" {
		c.Categorical = true
		h = h[:i]
		if i = strings.LastIndexByte(h, ':'); i < 0 {
			return Column{}, fmt.Errorf("relation: csv header %q has :cat but no kind", h+":cat")
		}
	}
	switch kind := h[i+1:]; kind {
	case "string":
		c.Kind = KindString
	case "int":
		c.Kind = KindInt
	case "float":
		c.Kind = KindFloat
	case "null":
		c.Kind = KindNull
	default:
		return Column{}, fmt.Errorf("relation: unknown kind %q in csv header", kind)
	}
	c.Name = h[:i]
	return c, nil
}
