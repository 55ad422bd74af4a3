package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// WriteCSV serializes the table to w. The header encodes each column as
// "name:kind[:cat]" so ReadCSV can round-trip types exactly.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, t.Schema.Len())
	for i := 0; i < t.Schema.Len(); i++ {
		c := t.Schema.Column(i)
		h := c.Name + ":" + c.Kind.String()
		if c.Categorical {
			h += ":cat"
		}
		header[i] = h
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("relation: write csv header: %w", err)
	}
	rec := make([]string, t.Schema.Len())
	for _, row := range t.Rows {
		for i, v := range row {
			rec[i] = v.String()
		}
		if len(rec) == 1 && rec[0] == "" {
			// A lone NULL would be a blank line, which csv.Reader skips:
			// quote it so the row survives the round trip.
			cw.Flush()
			if _, err := io.WriteString(w, "\"\"\n"); err != nil {
				return fmt.Errorf("relation: write csv row: %w", err)
			}
			continue
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("relation: write csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a table previously written by WriteCSV. Its input may come
// from outside the program (marketplace responses, journal sample files),
// so a malformed header — an unknown kind, an empty or duplicate column
// name — is an error, never a panic.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: read csv header: %w", err)
	}
	cols := make([]Column, len(header))
	for i, h := range header {
		if cols[i], err = parseHeaderColumn(h); err != nil {
			return nil, err
		}
	}
	schema, err := newSchema(cols...)
	if err != nil {
		return nil, err
	}
	t := NewTable(name, schema)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: read csv row: %w", err)
		}
		row := make([]Value, len(cols))
		for i, s := range rec {
			v, err := ParseValue(s, cols[i].Kind)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		t.Append(row)
	}
	return t, nil
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
