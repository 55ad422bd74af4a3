package relation

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Kind Kind
	// Categorical controls how the correlation measure of Def 2.5 treats
	// the attribute: Shannon entropy when true, cumulative entropy when
	// false. String columns are always categorical regardless of the flag.
	Categorical bool
}

// Categorical reports whether the column is treated as categorical by the
// correlation measure.
func (c Column) IsCategorical() bool { return c.Categorical || c.Kind == KindString }

// Schema is an ordered list of columns with name-based lookup.
type Schema struct {
	cols   []Column
	byName map[string]int
	// id is unique among the schemas of the process, never reused: the
	// joined-schema memo keys by it, so a key cannot alias a freed schema.
	id uint64
}

// schemaIDs numbers schemas as they are built.
var schemaIDs atomic.Uint64

// NewSchema builds a schema from cols. Column names must be non-empty and
// unique; NewSchema panics otherwise (use newSchema for outside input).
func NewSchema(cols ...Column) *Schema {
	s, err := newSchema(cols...)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// newSchema is NewSchema reporting empty or duplicate names as errors.
func newSchema(cols ...Column) (*Schema, error) {
	s := &Schema{cols: append([]Column(nil), cols...), byName: make(map[string]int, len(cols)), id: schemaIDs.Add(1)}
	for i, c := range s.cols {
		if c.Name == "" {
			return nil, fmt.Errorf("relation: empty column name")
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("relation: duplicate column %q", c.Name)
		}
		s.byName[c.Name] = i
	}
	return s, nil
}

// Cat is shorthand for a categorical column of the given kind.
func Cat(name string, kind Kind) Column { return Column{Name: name, Kind: kind, Categorical: true} }

// Num is shorthand for a numerical (non-categorical) column.
func Num(name string, kind Kind) Column { return Column{Name: name, Kind: kind} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Column returns the i-th column.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// Columns returns a copy of all columns.
func (s *Schema) Columns() []Column { return append([]Column(nil), s.cols...) }

// Names returns all column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.cols))
	for i, c := range s.cols {
		out[i] = c.Name
	}
	return out
}

// Index returns the position of the named column, or -1.
func (s *Schema) Index(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Has reports whether the schema contains the named column.
func (s *Schema) Has(name string) bool { return s.Index(name) >= 0 }

// MustIndexes maps names to column positions, panicking on unknown names.
func (s *Schema) MustIndexes(names ...string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		idx := s.Index(n)
		if idx < 0 {
			panic(fmt.Sprintf("relation: unknown column %q (have %v)", n, s.Names()))
		}
		out[i] = idx
	}
	return out
}

// Indexes maps names to column positions, returning an error on unknown names.
func (s *Schema) Indexes(names ...string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		idx := s.Index(n)
		if idx < 0 {
			return nil, fmt.Errorf("relation: unknown column %q (have %v)", n, s.Names())
		}
		out[i] = idx
	}
	return out, nil
}

// Project returns a new schema restricted to names, in the given order.
func (s *Schema) Project(names ...string) (*Schema, error) {
	idx, err := s.Indexes(names...)
	if err != nil {
		return nil, err
	}
	cols := make([]Column, len(idx))
	for i, j := range idx {
		cols[i] = s.cols[j]
	}
	return newSchema(cols...)
}

// SharedAttrs returns the sorted set of column names present in both schemas.
// This defines the candidate join attributes of an I-edge (Def 4.2).
func SharedAttrs(a, b *Schema) []string {
	var shared []string
	for _, c := range a.cols {
		if b.Has(c.Name) {
			shared = append(shared, c.Name)
		}
	}
	sort.Strings(shared)
	return shared
}

// String renders the schema as "name kind[cat], ...".
func (s *Schema) String() string {
	parts := make([]string, len(s.cols))
	for i, c := range s.cols {
		tag := ""
		if c.IsCategorical() {
			tag = " cat"
		}
		parts[i] = fmt.Sprintf("%s %s%s", c.Name, c.Kind, tag)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Equal reports whether two schemas have identical columns in order.
func (s *Schema) Equal(o *Schema) bool {
	if s.Len() != o.Len() {
		return false
	}
	for i := range s.cols {
		if s.cols[i] != o.cols[i] {
			return false
		}
	}
	return true
}
