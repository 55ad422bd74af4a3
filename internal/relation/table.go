package relation

import (
	"fmt"
)

// Table is an in-memory relation: a named schema plus rows.
type Table struct {
	Name   string
	Schema *Schema
	Rows   [][]Value
}

// NewTable returns an empty table with the given name and schema.
func NewTable(name string, schema *Schema) *Table {
	return &Table{Name: name, Schema: schema}
}

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return len(t.Rows) }

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return t.Schema.Len() }

// Append adds a row. The row length must match the schema.
func (t *Table) Append(row []Value) {
	if len(row) != t.Schema.Len() {
		panic(fmt.Sprintf("relation: row width %d != schema width %d in %s", len(row), t.Schema.Len(), t.Name))
	}
	t.Rows = append(t.Rows, row)
}

// AppendValues is a variadic convenience wrapper around Append.
func (t *Table) AppendValues(vals ...Value) { t.Append(vals) }

// Clone returns a deep-enough copy: the row slice and each row are copied,
// Values are immutable so they are shared.
func (t *Table) Clone() *Table {
	c := &Table{Name: t.Name, Schema: t.Schema, Rows: make([][]Value, len(t.Rows))}
	for i, r := range t.Rows {
		c.Rows[i] = append([]Value(nil), r...)
	}
	return c
}

// Project returns a new table containing only the named columns, in order.
// Row order is preserved; duplicates are kept (bag semantics, matching the
// projection queries DANCE issues against the marketplace). The output rows
// are carved from one slab, each capped at its own width.
func (t *Table) Project(names ...string) (*Table, error) {
	idx, err := t.Schema.Indexes(names...)
	if err != nil {
		return nil, fmt.Errorf("project %s: %w", t.Name, err)
	}
	schema, err := t.Schema.Project(names...)
	if err != nil {
		return nil, err
	}
	out := NewTable(t.Name, schema)
	out.Rows = make([][]Value, len(t.Rows))
	w := len(idx)
	slab := make([]Value, len(t.Rows)*w)
	for i, r := range t.Rows {
		nr := slab[i*w : (i+1)*w : (i+1)*w]
		for j, c := range idx {
			nr[j] = r[c]
		}
		out.Rows[i] = nr
	}
	return out, nil
}

// MustProject is Project that panics on unknown columns; used in tests and
// generators where schemas are static.
func (t *Table) MustProject(names ...string) *Table {
	out, err := t.Project(names...)
	if err != nil {
		panic(err)
	}
	return out
}

// Column returns all values of the named column.
func (t *Table) Column(name string) ([]Value, error) {
	i := t.Schema.Index(name)
	if i < 0 {
		return nil, fmt.Errorf("relation: table %s has no column %q", t.Name, name)
	}
	out := make([]Value, len(t.Rows))
	for j, r := range t.Rows {
		out[j] = r[i]
	}
	return out, nil
}

// EncodeKey appends the injective encoding of row[cols...] to buf.
func EncodeKey(buf []byte, row []Value, cols []int) []byte {
	for _, c := range cols {
		buf = row[c].AppendKey(buf)
	}
	return buf
}

// String renders a short description of the table.
func (t *Table) String() string {
	return fmt.Sprintf("%s%s [%d rows]", t.Name, t.Schema, len(t.Rows))
}
