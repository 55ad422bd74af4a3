// Package fd implements functional dependencies, the data-quality measure of
// the paper (Defs 2.2 and 2.3), and TANE-style levelwise discovery of
// approximate functional dependencies (AFDs).
//
// Terminology: the paper states "an AFD F holds on D if Q(D, F) ≥ θ" but its
// experiments use "θ = 0.1 ... the amount of records that do not satisfy FDs
// is less than 10%". We resolve the ambiguity by parameterizing on MaxError:
// an AFD holds iff its g3 error (1 − Q) is at most MaxError; the paper's
// θ = 0.1 corresponds to MaxError = 0.1.
package fd

import (
	"fmt"
	"sort"
	"strings"

	"github.com/dance-db/dance/internal/bitset"
	"github.com/dance-db/dance/internal/relation"
)

// FD is a functional dependency LHS → RHS with a single right-hand-side
// attribute (multi-attribute RHS decomposes, Sec 2.2 of the paper).
type FD struct {
	LHS []string
	RHS string
}

// New returns an FD with a sorted, copied LHS.
func New(rhs string, lhs ...string) FD {
	l := append([]string(nil), lhs...)
	sort.Strings(l)
	return FD{LHS: l, RHS: rhs}
}

// String renders "A,B → C".
func (f FD) String() string {
	return strings.Join(f.LHS, ",") + " → " + f.RHS
}

// Attrs returns all attributes mentioned by the FD.
func (f FD) Attrs() []string {
	out := append([]string(nil), f.LHS...)
	return append(out, f.RHS)
}

// AppliesTo reports whether every attribute of the FD exists in schema s.
func (f FD) AppliesTo(s *relation.Schema) bool {
	for _, a := range f.Attrs() {
		if !s.Has(a) {
			return false
		}
	}
	return true
}

// Parse parses "A,B->C" or "A,B → C".
func Parse(s string) (FD, error) {
	var lhsStr, rhsStr string
	switch {
	case strings.Contains(s, "→"):
		parts := strings.SplitN(s, "→", 2)
		lhsStr, rhsStr = parts[0], parts[1]
	case strings.Contains(s, "->"):
		parts := strings.SplitN(s, "->", 2)
		lhsStr, rhsStr = parts[0], parts[1]
	default:
		return FD{}, fmt.Errorf("fd: %q has no arrow", s)
	}
	var lhs []string
	for _, a := range strings.Split(lhsStr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			lhs = append(lhs, a)
		}
	}
	rhs := strings.TrimSpace(rhsStr)
	if len(lhs) == 0 || rhs == "" {
		return FD{}, fmt.Errorf("fd: %q is malformed", s)
	}
	return New(rhs, lhs...), nil
}

// CorrectRows returns the set C(D, X→Y) of Def 2.2 as a bitset over the rows
// of t: for every equivalence class eq_x of π_X, the rows of the largest
// equivalence class of π_{X∪Y} contained in it. Ties are broken
// deterministically by smallest first-row index (the paper breaks them
// randomly; determinism keeps experiments reproducible).
func CorrectRows(t *relation.Table, f FD) (*bitset.Set, error) {
	xGroups, err := t.GroupIndices(f.LHS...)
	if err != nil {
		return nil, fmt.Errorf("fd %s on %s: %w", f, t.Name, err)
	}
	rhsIdx := t.Schema.Index(f.RHS)
	if rhsIdx < 0 {
		return nil, fmt.Errorf("fd %s on %s: no column %q", f, t.Name, f.RHS)
	}
	correct := bitset.New(t.NumRows())
	var buf []byte
	sub := make(map[string][]int)
	for _, rows := range xGroups {
		for k := range sub {
			delete(sub, k)
		}
		for _, ri := range rows {
			buf = t.Rows[ri][rhsIdx].AppendKey(buf[:0])
			sub[string(buf)] = append(sub[string(buf)], ri)
		}
		var best []int
		for _, g := range sub {
			if len(g) > len(best) || (len(g) == len(best) && len(g) > 0 && g[0] < best[0]) {
				best = g
			}
		}
		for _, ri := range best {
			correct.Set(ri)
		}
	}
	return correct, nil
}

// Quality returns Q(D, F) of Def 2.2: |C(D, F)| / |D|. An empty table has
// quality 1.
func Quality(t *relation.Table, f FD) (float64, error) {
	if t.NumRows() == 0 {
		return 1, nil
	}
	c, err := CorrectRows(t, f)
	if err != nil {
		return 0, err
	}
	return float64(c.Count()) / float64(t.NumRows()), nil
}

// QualitySet returns Q of Def 2.3 for a joined instance t under the AFD set
// fds: |⋂_F C(t, F)| / |t|. FDs whose attributes are missing from t are
// skipped (they cannot constrain the join result). With no applicable FDs
// the quality is 1.
func QualitySet(t *relation.Table, fds []FD) (float64, error) {
	if t.NumRows() == 0 {
		return 1, nil
	}
	var acc *bitset.Set
	for _, f := range fds {
		if !f.AppliesTo(t.Schema) {
			continue
		}
		c, err := CorrectRows(t, f)
		if err != nil {
			return 0, err
		}
		if acc == nil {
			acc = c
		} else {
			acc.And(c)
		}
	}
	if acc == nil {
		return 1, nil
	}
	return float64(acc.Count()) / float64(t.NumRows()), nil
}

// Applicable filters fds to those whose attributes all exist in schema s.
func Applicable(fds []FD, s *relation.Schema) []FD {
	var out []FD
	for _, f := range fds {
		if f.AppliesTo(s) {
			out = append(out, f)
		}
	}
	return out
}
