package fd

import (
	"fmt"

	"github.com/dance-db/dance/internal/bitset"
	"github.com/dance-db/dance/internal/relation"
)

// Factorized quality. A join path reads each of its columns through one
// row-id vector, at the rows of one base relation. An FD whose columns are
// all read through one vector splits the path's rows exactly as it splits
// that relation's rows: a path row's LHS group and (LHS, RHS) pair are those
// of the base row it reads. Its correct set (Def 2.2) on the path therefore
// follows from one refinement of the base rows (RefineBase), built once,
// and two sweeps over the vector per path: one counts every pair's path
// multiplicity and first path row (the tie-break), one clears the minority
// rows. An FD that holds exactly on the base rows holds on every multiset
// of them, so it clears no row of any path.

// Refinement is an FD X → A in base-row form: refined over the rows of one
// stored relation by RefineBase.
type Refinement struct {
	holds bool
	wide  bool
	// pair numbers each base row's (LHS group, RHS code) pair among the
	// groups that carry more than one RHS code, and is -1 for a row of any
	// other group: a group with one RHS code keeps its rows on every path.
	pair []int32
	// group numbers each pair's LHS group, over those same groups.
	group  []int32
	groups int
}

// Holds reports whether the FD holds exactly on the base rows, and so
// clears no row of any path over them.
func (r *Refinement) Holds() bool { return r.holds }

// Factored reports whether QualityFactored can take the FD as an anchor. It
// is false when the FD's (LHS group, RHS code) key space was too wide to
// refine; the path kernel then evaluates the FD.
func (r *Refinement) Factored() bool { return !r.wide }

// BaseRows is the number of base rows the refinement numbers: the cost a
// memo of refinements charges it.
func (r *Refinement) BaseRows() int { return len(r.pair) }

// RefineBase refines the FD whose LHS is the coded columns lhs of the
// stored relation base and whose RHS is its coded column rhs. An FD that
// holds exactly keeps only that flag. An inexact FD is refined only while
// its LHS groups × RHS dictionary size stay within 4 keys per base row
// (plus 16), the flat table of one fuse pass: past that it is marked wide,
// not refined. The grouping temporaries come from s (nil: allocated); the
// refinement itself is a plain allocation, for a caller that keeps it.
func RefineBase(base *relation.Columnar, lhs []int, rhs int, s *relation.Scratch) (*Refinement, error) {
	dict := base.Dict(rhs)
	if dict == nil {
		return nil, fmt.Errorf("fd: column %q of %s is not dictionary-coded", base.Schema().Column(rhs).Name, base.Name)
	}
	g, err := s.GroupBy(base, lhs, 1)
	if err != nil {
		return nil, err
	}
	defer s.ReleaseGrouping(g)
	groupRHS := relation.ScratchSlice[uint32](s, g.N())
	holds := holdsExactly(g, base.CodeCol(rhs), groupRHS)
	relation.FreeSlice(s, groupRHS)
	if holds {
		return &Refinement{holds: true}, nil
	}
	n := base.NumRows()
	if uint64(g.N())*uint64(dict.Len()) > uint64(4*n+16) {
		return &Refinement{wide: true}, nil
	}
	pairs, err := s.Refine(base, g, rhs)
	if err != nil {
		return nil, err
	}
	defer s.ReleaseGrouping(pairs)
	// Each LHS group's pair count, then its number among the groups with
	// more than one pair (-1: none).
	perGroup := relation.ScratchSlice[int32](s, g.N())
	defer relation.FreeSlice(s, perGroup)
	clear(perGroup)
	for _, first := range pairs.First {
		perGroup[g.Codes[first]]++
	}
	r := &Refinement{pair: make([]int32, n)}
	for gid, k := range perGroup {
		perGroup[gid] = -1
		if k > 1 {
			perGroup[gid] = int32(r.groups)
			r.groups++
		}
	}
	pairID := relation.ScratchSlice[int32](s, pairs.N())
	defer relation.FreeSlice(s, pairID)
	for p, first := range pairs.First {
		pairID[p] = -1
		if gid := perGroup[g.Codes[first]]; gid >= 0 {
			pairID[p] = int32(len(r.group))
			r.group = append(r.group, gid)
		}
	}
	for row, p := range pairs.Codes {
		r.pair[row] = pairID[p]
	}
	return r, nil
}

// Anchor is an FD of a join path in base-row form: Ref refines it over the
// base relation the path reads through its row-id vector Vec.
type Anchor struct {
	Vec int
	Ref *Refinement
}

// QualityFactored returns Q of Def 2.3 for the relation c under the FDs
// rest, which must all apply to c, and the FDs the anchors refine: the
// value QualitySetColumnar gives under all of them, bit for bit. Each
// anchor's refinement must be Factored and its FD's columns must be read
// through the anchor's vector, or be join attributes the path equates with
// that vector's columns. The sweeps' tables come from s (nil: allocated).
func QualityFactored(c *relation.Columnar, rest []FD, anchors []Anchor, s *relation.Scratch) (float64, error) {
	if c.NumRows() == 0 {
		return 1, nil
	}
	correct, err := correctRowsColumnar(c, rest, s)
	if err != nil {
		return 0, err
	}
	for _, a := range anchors {
		a.Ref.clearMinority(correct, c.RowIDs(a.Vec), s)
	}
	return float64(correct.Count()) / float64(c.NumRows()), nil
}

// clearMinority clears from correct every path row outside its LHS group's
// majority pair: the pair with the most path rows, ties broken by the
// smallest first path row, as majorityPairs picks on the path. Path row i
// reads base row rows[i] (rows nil: base row i).
func (r *Refinement) clearMinority(correct *bitset.Set, rows []int32, s *relation.Scratch) {
	if r.holds || r.groups == 0 {
		return
	}
	pp := r.pair
	if rows != nil {
		pp = relation.ScratchSlice[int32](s, len(rows))
		defer relation.FreeSlice(s, pp)
		for i, b := range rows {
			pp[i] = r.pair[b]
		}
	}
	counts := relation.ScratchSlice[int32](s, len(r.group))
	defer relation.FreeSlice(s, counts)
	clear(counts)
	first := relation.ScratchSlice[int32](s, len(r.group))
	defer relation.FreeSlice(s, first)
	present := 0
	for i, p := range pp {
		if p < 0 {
			continue
		}
		if counts[p] == 0 {
			first[p] = int32(i)
			present++
		}
		counts[p]++
	}
	best := relation.ScratchSlice[int32](s, r.groups)
	defer relation.FreeSlice(s, best)
	for gid := range best {
		best[gid] = -1
	}
	groups := 0
	for p, k := range counts {
		if k == 0 {
			continue
		}
		gid := r.group[p]
		b := best[gid]
		if b < 0 {
			groups++
		}
		if b < 0 || k > counts[b] || (k == counts[b] && first[p] < first[b]) {
			best[gid] = int32(p)
		}
	}
	if groups == present {
		return // every group on the path carries one pair: nothing to clear
	}
	// A majority pair's count becomes -1; a present pair still counting
	// rows is a minority.
	for _, b := range best {
		if b >= 0 {
			counts[b] = -1
		}
	}
	for i, p := range pp {
		if p >= 0 && counts[p] > 0 {
			correct.Clear(i)
		}
	}
}
