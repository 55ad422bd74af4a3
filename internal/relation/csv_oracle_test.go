package relation

import (
	"encoding/csv"
	"fmt"
	"io"
)

// This file keeps the encoding/csv codec as the reference oracle the
// production codec must match byte for byte: a csv.Writer formatting each
// cell with Value.String, and a csv.Reader parsing each record with
// ParseValue.

// oracleWriteCSV serializes t through a csv.Writer.
func oracleWriteCSV(t *Table, w io.Writer) error {
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

// oracleReadCSV parses a table through a csv.Reader.
func oracleReadCSV(name string, r io.Reader) (*Table, error) {
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
