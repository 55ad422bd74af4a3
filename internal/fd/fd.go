// Package fd implements functional dependencies, the data-quality measure of
// the paper (Defs 2.2 and 2.3), and TANE-style levelwise discovery of
// approximate functional dependencies (AFDs).
//
// Terminology: the paper states "an AFD F holds on D if Q(D, F) ≥ θ" but its
// experiments use "θ = 0.1 ... the amount of records that do not satisfy FDs
// is less than 10%". We resolve the ambiguity by parameterizing on MaxError:
// an AFD holds iff its g3 error (1 − Q) is at most MaxError; the paper's
// θ = 0.1 corresponds to MaxError = 0.1.
//
// Quality has two kernels with one answer. The path kernel
// (QualitySetColumnar) groups a relation's rows by each FD's LHS and RHS
// codes. The factorized kernel (QualityFactored) serves an FD whose
// columns a join path reads through one base relation's row-id vector: the
// FD splits the path's rows as it splits that relation's rows, so one
// refinement of the base rows (RefineBase), kept across paths, and two
// sweeps over the vector give the path kernel's correct set, first-row
// tie-breaks included.
package fd

import (
	"fmt"
	"sort"
	"strings"

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
