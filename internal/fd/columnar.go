package fd

import (
	"fmt"
	"slices"

	"github.com/dance-db/dance/internal/bitset"
	"github.com/dance-db/dance/internal/relation"
)

// Columnar fast path for the quality measure: equivalence classes are fused
// integer-code groups and the per-class refinement counts in flat epoch-
// stamped slices indexed by RHS dictionary code, so no byte-string keys or
// per-group maps are allocated. Results are exact set arithmetic and
// therefore identical to the row path.

// CorrectRowsColumnar returns the set C(D, X→Y) of Def 2.2 over the rows of
// c, identically to CorrectRows on the decoded table (same deterministic
// tie-break: largest class, then smallest first-row index).
func CorrectRowsColumnar(c *relation.Columnar, f FD) (*bitset.Set, error) {
	var out *bitset.Set
	err := correctRowsColumnar(c, []FD{f}, func(cr *bitset.Set) { out = cr })
	return out, err
}

// QualitySetColumnar returns Q of Def 2.3 for the columnar relation c under
// the AFD set fds, identically to QualitySet on the decoded table.
func QualitySetColumnar(c *relation.Columnar, fds []FD) (float64, error) {
	if c.NumRows() == 0 {
		return 1, nil
	}
	var applied []FD
	for _, f := range fds {
		if f.AppliesTo(c.Schema()) {
			applied = append(applied, f)
		}
	}
	// The intersection of the correct-row sets is order-independent.
	var acc *bitset.Set
	err := correctRowsColumnar(c, applied, func(cr *bitset.Set) {
		if acc == nil {
			acc = cr
		} else {
			acc.And(cr)
		}
	})
	if err != nil {
		return 0, err
	}
	if acc == nil {
		return 1, nil
	}
	return float64(acc.Count()) / float64(c.NumRows()), nil
}

// correctRowsColumnar hands C(D, f) for every f of fds to emit, grouping c
// once per distinct LHS (compared as column-index slices) and refining
// that grouping for every FD sharing it. The per-class refinement counts
// live in flat slices indexed by RHS code, sized to the largest RHS
// dictionary and shared by every FD; an epoch stamp that keeps running
// across classes and FDs invalidates them instead of clearing.
func correctRowsColumnar(c *relation.Columnar, fds []FD, emit func(*bitset.Set)) error {
	lhs := make([][]int, len(fds))
	rhs := make([][]uint32, len(fds))
	dictN := 0
	for i, f := range fds {
		var err error
		if lhs[i], err = c.Schema().Indexes(f.LHS...); err != nil {
			return fmt.Errorf("fd %s on %s: %w", f, c.Name, err)
		}
		rhsCol := c.Schema().Index(f.RHS)
		if rhsCol < 0 {
			return fmt.Errorf("fd %s on %s: no column %q", f, c.Name, f.RHS)
		}
		if rhs[i] = c.Codes(rhsCol); rhs[i] == nil {
			return fmt.Errorf("fd %s on %s: column %q is not dictionary-coded", f, c.Name, f.RHS)
		}
		dictN = max(dictN, c.DictLen(rhsCol))
	}
	counts := make([]int32, dictN)
	firstRow := make([]int32, dictN)
	stamp := make([]uint32, dictN)
	epoch := uint32(0)
	done := make([]bool, len(fds))
	for i := range fds {
		if done[i] {
			continue
		}
		g, err := c.GroupBy(lhs[i])
		if err != nil {
			return fmt.Errorf("fd %s on %s: %w", fds[i], c.Name, err)
		}
		starts, rows := g.RowLists()
		for j := i; j < len(fds); j++ {
			if done[j] || !slices.Equal(lhs[j], lhs[i]) {
				continue
			}
			done[j] = true
			rhsCodes := rhs[j]
			correct := bitset.New(c.NumRows())
			for gid := 0; gid < g.N(); gid++ {
				if epoch++; epoch == 0 { // wrapped: forget every stamp
					clear(stamp)
					epoch = 1
				}
				grows := rows[starts[gid]:starts[gid+1]]
				for _, ri := range grows {
					code := rhsCodes[ri]
					if stamp[code] != epoch {
						stamp[code] = epoch
						counts[code] = 0
						firstRow[code] = ri
					}
					counts[code]++
				}
				bestCode := int32(-1)
				bestCount := int32(0)
				bestFirst := int32(0)
				for _, ri := range grows {
					code := rhsCodes[ri]
					if counts[code] > bestCount || (counts[code] == bestCount && firstRow[code] < bestFirst) {
						bestCode, bestCount, bestFirst = int32(code), counts[code], firstRow[code]
					}
				}
				if bestCode < 0 {
					continue
				}
				for _, ri := range grows {
					if int32(rhsCodes[ri]) == bestCode {
						correct.Set(int(ri))
					}
				}
			}
			emit(correct)
		}
	}
	return nil
}
