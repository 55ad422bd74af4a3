package relation

import (
	"fmt"
	"sort"
)

// Partition is the partition π_X of a table over an attribute set X
// (Def 2.1): a list of equivalence classes, each a sorted slice of row
// indices. Classes are ordered by their smallest row index so partitions are
// deterministic.
type Partition struct {
	Classes [][]int
	N       int // number of rows of the underlying table
}

// PartitionBy computes π_X for the named attribute set.
func (t *Table) PartitionBy(names ...string) (*Partition, error) {
	groups, err := t.GroupIndices(names...)
	if err != nil {
		return nil, fmt.Errorf("partition %s by %v: %w", t.Name, names, err)
	}
	return partitionFromGroups(groups, len(t.Rows)), nil
}

func partitionFromGroups(groups map[string][]int, n int) *Partition {
	classes := make([][]int, 0, len(groups))
	for _, g := range groups {
		classes = append(classes, g)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i][0] < classes[j][0] })
	return &Partition{Classes: classes, N: n}
}

// NumClasses returns the number of equivalence classes.
func (p *Partition) NumClasses() int { return len(p.Classes) }

// Refine intersects p with the grouping of rows by the columns at idx in
// table t, producing π_{X∪Y} from π_X. It is the workhorse of levelwise FD
// discovery: only rows inside existing classes need re-grouping.
func (p *Partition) Refine(t *Table, idx []int) *Partition {
	out := &Partition{N: p.N}
	var buf []byte
	sub := make(map[string][]int)
	for _, class := range p.Classes {
		for k := range sub {
			delete(sub, k)
		}
		for _, ri := range class {
			buf = EncodeKey(buf[:0], t.Rows[ri], idx)
			sub[string(buf)] = append(sub[string(buf)], ri)
		}
		for _, g := range sub {
			out.Classes = append(out.Classes, g)
		}
	}
	sort.Slice(out.Classes, func(i, j int) bool { return out.Classes[i][0] < out.Classes[j][0] })
	return out
}

// Error returns the g3 error of the FD "X -> (X ∪ Y)" style refinement:
// the minimum fraction of rows that must be removed from each class of p so
// that the refined partition q agrees with p. p is π_X, q is π_{X∪Y}.
// This equals 1 - Q(D, X→Y) of Def 2.2.
func (p *Partition) Error(q *Partition) float64 {
	if p.N == 0 {
		return 0
	}
	return 1 - float64(p.CorrectCount(q))/float64(p.N)
}

// CorrectCount returns |C(D, X→Y)| of Def 2.2: for each equivalence class of
// p (π_X), the size of the largest sub-class in q (π_{X∪Y}) contained in it,
// summed over classes. q must refine p.
func (p *Partition) CorrectCount(q *Partition) int {
	// Map each row to its q-class size, then for each p-class take the max
	// sub-class size. Sub-classes of a p-class are exactly the q-classes
	// whose rows fall inside it (q refines p).
	classSize := make([]int, p.N)
	for _, c := range q.Classes {
		for _, ri := range c {
			classSize[ri] = len(c)
		}
	}
	// Identify each row's q-class by a representative: smallest row index.
	rep := make([]int, p.N)
	for _, c := range q.Classes {
		m := c[0]
		for _, ri := range c {
			if ri < m {
				m = ri
			}
		}
		for _, ri := range c {
			rep[ri] = m
		}
	}
	total := 0
	seen := make(map[int]bool)
	for _, c := range p.Classes {
		for k := range seen {
			delete(seen, k)
		}
		best := 0
		for _, ri := range c {
			r := rep[ri]
			if seen[r] {
				continue
			}
			seen[r] = true
			if classSize[ri] > best {
				best = classSize[ri]
			}
		}
		total += best
	}
	return total
}
