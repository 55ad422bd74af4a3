package fd

import (
	"encoding/binary"
	"sort"

	"github.com/dance-db/dance/internal/relation"
)

// DiscoveryOptions configure levelwise AFD discovery.
type DiscoveryOptions struct {
	// MaxError is the g3 error bound: an AFD X→A is reported when at most
	// MaxError · |D| rows must be removed for it to hold exactly.
	// The paper's experiments use 0.1.
	MaxError float64
	// MaxLHS bounds the size of left-hand sides (default 2). The paper's
	// FD counts (e.g. 114 AFDs on Lineitem) are reachable with small LHS;
	// unbounded search is exponential in the attribute count.
	MaxLHS int
	// MaxRows caps the rows examined (0 = all). Discovery on samples is
	// how DANCE estimates quality anyway (Sec 3).
	MaxRows int
	// MinDistinct skips attributes with fewer distinct values than this as
	// RHS candidates (default 0 = no skip). Constant columns yield trivial
	// dependencies X→const that inflate counts.
	MinDistinct int
}

// DefaultDiscoveryOptions mirror the paper's experimental setup.
func DefaultDiscoveryOptions() DiscoveryOptions {
	return DiscoveryOptions{MaxError: 0.1, MaxLHS: 2}
}

// Discover performs TANE-style levelwise discovery of minimal AFDs on c,
// whose columns must all be dictionary-coded. An AFD is minimal when no
// proper subset of its LHS already determines the same RHS within the error
// bound. Partitions π_X (Def 2.1) are Groupings over the dictionary codes,
// each level refining its parent's by one attribute. Results are sorted for
// determinism.
func Discover(c *relation.Columnar, opts DiscoveryOptions) ([]FD, error) {
	if opts.MaxLHS <= 0 {
		opts.MaxLHS = 2
	}
	if opts.MaxRows > 0 && c.NumRows() > opts.MaxRows {
		rows := make([]int32, opts.MaxRows)
		stride := c.NumRows() / opts.MaxRows
		for i := range rows {
			rows[i] = int32(i * stride)
		}
		c = c.FilterRows(rows)
	}
	n := c.NumRows()
	m := c.Schema().Len()
	if n == 0 || m < 2 {
		return nil, nil
	}
	names := c.Schema().Names()

	// Every partition lives in one scratch: a check's refinement is dropped
	// once counted and a level's partitions once the next level is built,
	// so later ones reuse their storage, and no partition grows its counts.
	s := relation.NewScratch(nil)

	// Per-attribute partitions, reused across levels. Grouping every column
	// checks that all are dictionary-coded, so no Refine below can fail.
	attrParts := make([]*relation.Grouping, m)
	for a := range attrParts {
		g, err := s.GroupBy(c, []int{a}, 1)
		if err != nil {
			return nil, err
		}
		attrParts[a] = g
	}

	// holds reports whether X→rhs holds within the error bound, given the
	// partition part = π_X: a key determines everything; otherwise the
	// majority pairs of π_X refined by rhs are the correct rows.
	holds := func(part *relation.Grouping, rhs int) bool {
		if part.N() == n {
			return true
		}
		pairs, _ := s.Refine(c, part, rhs)
		best := majorityPairs(part, pairs, s)
		correct := 0
		for _, p := range best {
			correct += int(pairs.Counts[p])
		}
		relation.FreeSlice(s, best)
		s.ReleaseGrouping(pairs)
		return 1-float64(correct)/float64(n) <= opts.MaxError
	}

	var results []FD
	emit := func(lhs []int, rhs int) {
		l := make([]string, len(lhs))
		for i, a := range lhs {
			l[i] = names[a]
		}
		results = append(results, New(names[rhs], l...))
	}

	skipRHS := func(rhs int) bool {
		return opts.MinDistinct > 0 && attrParts[rhs].N() < opts.MinDistinct
	}

	type node struct {
		attrs []int // sorted LHS attribute indexes
		part  *relation.Grouping
		// detRHS[rhs] = true when some subset of attrs (possibly attrs
		// itself) determines rhs, or rhs ∈ attrs. Supersets then never
		// re-test rhs (TANE minimality pruning).
		detRHS []bool
	}

	// test emits and marks every undetermined RHS that attrs determines.
	test := func(attrs []int, part *relation.Grouping, det []bool) {
		for rhs := 0; rhs < m; rhs++ {
			if !det[rhs] && !skipRHS(rhs) && holds(part, rhs) {
				emit(attrs, rhs)
				det[rhs] = true
			}
		}
	}

	// Level 1.
	var level []node
	for a := 0; a < m; a++ {
		det := make([]bool, m)
		det[a] = true
		attrs := []int{a}
		test(attrs, attrParts[a], det)
		level = append(level, node{attrs: attrs, part: attrParts[a], detRHS: det})
	}

	for depth := 2; depth <= opts.MaxLHS; depth++ {
		// detRHS of every level-(depth-1) node, so children can OR together
		// the pruning state of all their (depth-1)-subsets, not just the
		// generating prefix.
		prevDet := make(map[string][]bool, len(level))
		for i := range level {
			prevDet[attrsKey(level[i].attrs)] = level[i].detRHS
		}
		var next []node
		for i := range level {
			nd := &level[i]
			if nd.part.N() == n {
				continue // keys determine everything; no extension useful
			}
			for a := nd.attrs[len(nd.attrs)-1] + 1; a < m; a++ {
				attrs := append(append([]int(nil), nd.attrs...), a)
				part, _ := s.Refine(c, nd.part, a)
				det := make([]bool, m)
				// OR the determination state of every (depth-1)-subset.
				sub := make([]int, 0, len(attrs)-1)
				for drop := range attrs {
					sub = sub[:0]
					for j, v := range attrs {
						if j != drop {
							sub = append(sub, v)
						}
					}
					if d, ok := prevDet[attrsKey(sub)]; ok {
						for rhs := 0; rhs < m; rhs++ {
							if d[rhs] {
								det[rhs] = true
							}
						}
					}
				}
				for _, la := range attrs {
					det[la] = true
				}
				test(attrs, part, det)
				next = append(next, node{attrs: attrs, part: part, detRHS: det})
			}
		}
		if depth > 2 { // level 1's partitions are attrParts, still in use
			for _, nd := range level {
				s.ReleaseGrouping(nd.part)
			}
		}
		level = next
	}

	sort.Slice(results, func(i, j int) bool {
		a, b := results[i], results[j]
		if la, lb := len(a.LHS), len(b.LHS); la != lb {
			return la < lb
		}
		return a.String() < b.String()
	})
	return results, nil
}

// attrsKey renders a sorted attribute-index set as a map key: four bytes
// per index, so schemas of any width key injectively.
func attrsKey(attrs []int) string {
	b := make([]byte, 0, 4*len(attrs))
	for _, a := range attrs {
		b = binary.LittleEndian.AppendUint32(b, uint32(a))
	}
	return string(b)
}
