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
	"unicode"
	"unicode/utf8"

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

// String renders "A,B → C" for display; Format renders the syntax Parse
// reads back.
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

// Format renders f in the wire syntax "A,B -> C", the one Parse reads:
// marketplace catalogs and .fds files carry FDs in it. A name renders as
// itself unless it holds a delimiter; then a backslash escapes each '\',
// ',', '→', a '-' before '>', and a whitespace rune at either edge of the
// name. So Parse(Format(f)) is f for every FD with a sorted LHS of
// non-empty names (as New and Parse return), whatever bytes they hold.
func Format(f FD) string {
	var b strings.Builder
	for i, a := range f.LHS {
		if i > 0 {
			b.WriteByte(',')
		}
		escapeName(&b, a)
	}
	b.WriteString(" -> ")
	escapeName(&b, f.RHS)
	return b.String()
}

// escapeName writes name to b with Format's escapes.
func escapeName(b *strings.Builder, name string) {
	for i := 0; i < len(name); {
		r, n := utf8.DecodeRuneInString(name[i:])
		edge := i == 0 || i+n == len(name)
		if r == '\\' || r == ',' || r == '→' || r == '-' && strings.HasPrefix(name[i+n:], ">") ||
			edge && unicode.IsSpace(r) {
			b.WriteByte('\\')
		}
		b.WriteString(name[i : i+n])
		i += n
	}
}

// Parse parses an FD in Format's syntax, "A,B -> C" or "A,B → C": the
// first unescaped arrow ends the LHS, unescaped commas split it, and
// unescaped whitespace at the edges of each name is dropped, as are empty
// LHS names. A backslash makes the rune after it part of the name.
func Parse(s string) (FD, error) {
	var lhs []string
	var name nameBuf
	arrow := false
	for i := 0; i < len(s); {
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == '\\':
			if i+n == len(s) {
				return FD{}, fmt.Errorf("fd: %q ends in a bare escape", s)
			}
			_, m := utf8.DecodeRuneInString(s[i+n:])
			name.add(s[i+n:i+n+m], true)
			n += m
		case arrow:
			name.add(s[i:i+n], !unicode.IsSpace(r))
		case r == ',', r == '→', r == '-' && strings.HasPrefix(s[i+n:], ">"):
			if a := name.String(); a != "" {
				lhs = append(lhs, a)
			}
			name = nameBuf{}
			if r == '-' {
				n++
			}
			arrow = r != ','
		default:
			name.add(s[i:i+n], !unicode.IsSpace(r))
		}
		i += n
	}
	if !arrow {
		return FD{}, fmt.Errorf("fd: %q has no arrow", s)
	}
	rhs := name.String()
	if len(lhs) == 0 || rhs == "" {
		return FD{}, fmt.Errorf("fd: %q is malformed", s)
	}
	return New(rhs, lhs...), nil
}

// nameBuf collects one name for Parse, dropping unescaped whitespace at
// its edges.
type nameBuf struct {
	b    []byte
	keep int // len(b) through the last escaped or non-space rune
}

// add appends rune bytes r; kept marks an escaped or non-space rune.
func (nb *nameBuf) add(r string, kept bool) {
	if len(nb.b) == 0 && !kept {
		return
	}
	nb.b = append(nb.b, r...)
	if kept {
		nb.keep = len(nb.b)
	}
}

func (nb *nameBuf) String() string { return string(nb.b[:nb.keep]) }

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
