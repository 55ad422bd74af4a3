package relation

import "fmt"

// fullOuterJoin materializes the full outer join of a and b on the named
// shared attributes, the row-store oracle of OuterJoinCounts. The output
// schema keeps both sides' join attributes: a's columns unchanged, then all
// of b's columns with colliding names renamed with an "_r" suffix, so
// unmatched rows can carry NULL on the absent side.
func fullOuterJoin(a, b *Table, on []string) (*Table, error) {
	if len(on) == 0 {
		return nil, fmt.Errorf("relation: outer join of %s and %s with no join attributes", a.Name, b.Name)
	}
	cols := a.Schema.Columns()
	taken := make(map[string]bool, len(cols)+b.Schema.Len())
	for _, c := range cols {
		taken[c.Name] = true
	}
	for i := 0; i < b.Schema.Len(); i++ {
		c := b.Schema.Column(i)
		base := c.Name
		if taken[c.Name] {
			c.Name = base + "_r"
		}
		for sfx := 2; taken[c.Name]; sfx++ {
			c.Name = fmt.Sprintf("%s_r%d", base, sfx)
		}
		taken[c.Name] = true
		cols = append(cols, c)
	}
	schema := NewSchema(cols...)

	aIdx, err := a.Schema.Indexes(on...)
	if err != nil {
		return nil, err
	}
	bIdx, err := b.Schema.Indexes(on...)
	if err != nil {
		return nil, err
	}

	build := make(map[string][]int, len(b.Rows))
	var buf []byte
	for i, r := range b.Rows {
		buf = EncodeKey(buf[:0], r, bIdx)
		build[string(buf)] = append(build[string(buf)], i)
	}
	matchedB := make([]bool, len(b.Rows))

	out := NewTable(a.Name+"⟗"+b.Name, schema)
	aw, bw := a.Schema.Len(), b.Schema.Len()
	for _, ra := range a.Rows {
		buf = EncodeKey(buf[:0], ra, aIdx)
		matches := build[string(buf)]
		if len(matches) == 0 {
			row := make([]Value, aw+bw)
			copy(row, ra)
			out.Rows = append(out.Rows, row) // right side all NULL
			continue
		}
		for _, bi := range matches {
			matchedB[bi] = true
			row := make([]Value, 0, aw+bw)
			row = append(row, ra...)
			row = append(row, b.Rows[bi]...)
			out.Rows = append(out.Rows, row)
		}
	}
	for bi, rb := range b.Rows {
		if matchedB[bi] {
			continue
		}
		row := make([]Value, aw+bw)
		copy(row[aw:], rb)
		out.Rows = append(out.Rows, row) // left side all NULL
	}
	return out, nil
}
