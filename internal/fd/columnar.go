package fd

import (
	"fmt"
	"slices"

	"github.com/dance-db/dance/internal/bitset"
	"github.com/dance-db/dance/internal/relation"
)

// The quality measure (Defs 2.2 and 2.3) in linear passes over dictionary
// codes: each distinct LHS is grouped once; an FD whose every LHS group
// carries a single RHS code holds exactly and clears nothing; any other FD
// counts its (LHS group, RHS code) pairs in one fuse pass, picks each
// group's majority pair, and clears the minority rows from one shared
// all-rows accumulator. No row lists, per-FD bitsets or byte-string keys are
// built. Results are exact set arithmetic, pinned against the row-store
// oracle of quality_oracle_test.go.

// CorrectRowsColumnar returns the set C(D, X→Y) of Def 2.2 over the rows of
// c: for every equivalence class eq_x of π_X, the rows of the largest
// equivalence class of π_{X∪Y} contained in it. Ties are broken
// deterministically by smallest first-row index (the paper breaks them
// randomly; determinism keeps experiments reproducible).
func CorrectRowsColumnar(c *relation.Columnar, f FD) (*bitset.Set, error) {
	return correctRowsColumnar(c, []FD{f}, nil)
}

// QualitySetColumnar returns Q of Def 2.3 for the columnar relation c under
// the AFD set fds: |⋂_F C(c, F)| / |c|. FDs whose attributes are missing
// from c are skipped (they cannot constrain the join result). With no
// applicable FDs, or no rows, the quality is 1. For a single FD this is
// Q(D, F) of Def 2.2.
func QualitySetColumnar(c *relation.Columnar, fds []FD) (float64, error) {
	return QualitySetScratch(c, fds, nil)
}

// QualitySetScratch is QualitySetColumnar with its LHS groupings, their
// refinements and the per-group tables taken from s (nil: allocated).
func QualitySetScratch(c *relation.Columnar, fds []FD, s *relation.Scratch) (float64, error) {
	if c.NumRows() == 0 {
		return 1, nil
	}
	correct, err := correctRowsColumnar(c, Applicable(fds, c.Schema()), s)
	if err != nil {
		return 0, err
	}
	return float64(correct.Count()) / float64(c.NumRows()), nil
}

// correctRowsColumnar returns ⋂_{f ∈ fds} C(D, f) over the rows of c
// (every row when fds is empty), grouping c once per distinct LHS (compared
// as column-index slices) and refining that grouping for every FD sharing
// it. Groupings and refinements are one pass of work each in s.
func correctRowsColumnar(c *relation.Columnar, fds []FD, s *relation.Scratch) (*bitset.Set, error) {
	lhs := make([][]int, len(fds))
	rhs := make([]int, len(fds))
	for i, f := range fds {
		var err error
		if lhs[i], err = c.Schema().Indexes(f.LHS...); err != nil {
			return nil, fmt.Errorf("fd %s on %s: %w", f, c.Name, err)
		}
		if rhs[i] = c.Schema().Index(f.RHS); rhs[i] < 0 {
			return nil, fmt.Errorf("fd %s on %s: no column %q", f, c.Name, f.RHS)
		}
		if c.Codes(rhs[i]) == nil {
			return nil, fmt.Errorf("fd %s on %s: column %q is not dictionary-coded", f, c.Name, f.RHS)
		}
	}
	correct := bitset.NewFull(c.NumRows())
	done := make([]bool, len(fds))
	for i := range fds {
		if done[i] {
			continue
		}
		g, err := s.GroupBy(c, lhs[i], 1)
		if err != nil {
			return nil, fmt.Errorf("fd %s on %s: %w", fds[i], c.Name, err)
		}
		// Each LHS group's first RHS code.
		groupRHS := relation.ScratchSlice[uint32](s, g.N())
		for j := i; j < len(fds); j++ {
			if done[j] || !slices.Equal(lhs[j], lhs[i]) {
				continue
			}
			done[j] = true
			if holdsExactly(g, c.Codes(rhs[j]), groupRHS) {
				continue
			}
			pairs, err := s.Refine(c, g, rhs[j])
			if err != nil {
				return nil, fmt.Errorf("fd %s on %s: %w", fds[j], c.Name, err)
			}
			clearMinority(correct, g, pairs, s)
			s.ReleaseGrouping(pairs)
		}
		relation.FreeSlice(s, groupRHS)
		s.ReleaseGrouping(g)
	}
	return correct, nil
}

// holdsExactly reports whether every group of g carries a single code of
// rhs, using scratch (g.N() long) for each group's first code.
func holdsExactly(g *relation.Grouping, rhs, scratch []uint32) bool {
	for gid, row := range g.First {
		scratch[gid] = rhs[row]
	}
	for row, gid := range g.Codes {
		if rhs[row] != scratch[gid] {
			return false
		}
	}
	return true
}

// clearMinority clears from correct every row outside its LHS group's
// majority (group, RHS code) pair. pairs refines g by the RHS column.
func clearMinority(correct *bitset.Set, g, pairs *relation.Grouping, s *relation.Scratch) {
	majority := relation.ScratchSlice[bool](s, pairs.N())
	clear(majority)
	best := majorityPairs(g, pairs, s)
	for _, p := range best {
		majority[p] = true
	}
	relation.FreeSlice(s, best)
	for row, p := range pairs.Codes {
		if !majority[p] {
			correct.Clear(row)
		}
	}
	relation.FreeSlice(s, majority)
}

// majorityPairs returns, for each group of g, its majority pair of the
// refinement pairs: the largest (group, RHS code) pair, ties broken by the
// smallest first row. The majority counts sum to |C(D, X→Y)| of Def 2.2,
// the complement of the g3 error discovery bounds. The result is taken
// from s.
func majorityPairs(g, pairs *relation.Grouping, s *relation.Scratch) []int32 {
	best := relation.ScratchSlice[int32](s, g.N())
	for gid := range best {
		best[gid] = -1
	}
	for p, first := range pairs.First {
		gid := g.Codes[first]
		b := best[gid]
		if b < 0 || pairs.Counts[p] > pairs.Counts[b] ||
			(pairs.Counts[p] == pairs.Counts[b] && first < pairs.First[b]) {
			best[gid] = int32(p)
		}
	}
	return best
}
