package relation

import (
	"fmt"
)

// joinedSchema builds the output schema of a join of a and b on the given
// attributes: all columns of a, then the columns of b except the join
// attributes. A non-join column of b whose name collides with a column
// already in the output is renamed with an "_r" suffix (such collisions only
// arise when a join variant uses a strict subset of the shared attributes).
// Taken names are tracked in a set, so the check is O(cols) rather than
// O(cols²) per join.
func joinedSchema(a, b *Schema, on []string) (*Schema, []int, error) {
	onSet := make(map[string]bool, len(on))
	for _, n := range on {
		if !a.Has(n) || !b.Has(n) {
			return nil, nil, fmt.Errorf("relation: join attribute %q not shared", n)
		}
		onSet[n] = true
	}
	cols := a.Columns()
	taken := make(map[string]bool, len(cols)+b.Len())
	for _, c := range cols {
		taken[c.Name] = true
	}
	var rightKeep []int
	for i := 0; i < b.Len(); i++ {
		c := b.Column(i)
		if onSet[c.Name] {
			continue
		}
		if taken[c.Name] {
			base := c.Name
			c.Name = base + "_r"
			for sfx := 2; taken[c.Name]; sfx++ {
				c.Name = fmt.Sprintf("%s_r%d", base, sfx)
			}
		}
		taken[c.Name] = true
		cols = append(cols, c)
		rightKeep = append(rightKeep, i)
	}
	return NewSchema(cols...), rightKeep, nil
}

// EquiJoin computes the inner equi-join of a and b on the named shared
// attributes using a hash join (build side: b). Bag semantics.
func EquiJoin(a, b *Table, on []string) (*Table, error) {
	if len(on) == 0 {
		return nil, fmt.Errorf("relation: equi-join of %s and %s with no join attributes", a.Name, b.Name)
	}
	schema, rightKeep, err := joinedSchema(a.Schema, b.Schema, on)
	if err != nil {
		return nil, fmt.Errorf("join %s ⋈ %s: %w", a.Name, b.Name, err)
	}
	aIdx, err := a.Schema.Indexes(on...)
	if err != nil {
		return nil, fmt.Errorf("join %s ⋈ %s: %w", a.Name, b.Name, err)
	}
	bIdx, err := b.Schema.Indexes(on...)
	if err != nil {
		return nil, fmt.Errorf("join %s ⋈ %s: %w", a.Name, b.Name, err)
	}

	build := make(map[string][]int, len(b.Rows))
	var buf []byte
	for i, r := range b.Rows {
		buf = EncodeKey(buf[:0], r, bIdx)
		build[string(buf)] = append(build[string(buf)], i)
	}

	// Size the output exactly from the build-side match counts so the row
	// slice is allocated once instead of grown through appends (map lookups
	// with string(buf) in place do not allocate).
	total := 0
	for _, ra := range a.Rows {
		buf = EncodeKey(buf[:0], ra, aIdx)
		total += len(build[string(buf)])
	}

	out := NewTable(a.Name+"⋈"+b.Name, schema)
	out.Rows = make([][]Value, 0, total)
	for _, ra := range a.Rows {
		buf = EncodeKey(buf[:0], ra, aIdx)
		matches := build[string(buf)]
		for _, bi := range matches {
			rb := b.Rows[bi]
			row := make([]Value, 0, schema.Len())
			row = append(row, ra...)
			for _, j := range rightKeep {
				row = append(row, rb[j])
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// PathStep is one hop of a multi-way join: join the accumulated result with
// Table on the shared attributes On.
type PathStep struct {
	Table *Table
	On    []string // ignored for the first step
}

// JoinPath joins steps left-to-right: ((T1 ⋈ T2) ⋈ T3) ⋈ ... Each step's On
// lists the attributes shared with the accumulated intermediate result.
func JoinPath(steps []PathStep) (*Table, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("relation: empty join path")
	}
	acc := steps[0].Table
	for _, st := range steps[1:] {
		var err error
		acc, err = EquiJoin(acc, st.Table, st.On)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}
