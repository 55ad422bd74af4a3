package search

import (
	"slices"
	"strconv"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/joingraph"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/safekey"
	"github.com/dance-db/dance/internal/sampling"
)

// Factorized quality. A join path reads every column through the row-id
// vector of one hop. An FD whose attributes the path reads through one
// hop's vector, or are join attributes of that hop (the equi-join makes
// such a column equal, row for row, to the hop's own), splits the path's
// rows as it splits the hop's base rows, so the path's quality under it
// follows from one refinement of the base rows (fd.RefineBase) and two
// sweeps over the vector (fd.QualityFactored). Which hop anchors which FD
// is a function of the join plan, classified once per (X/Y split, plan);
// refinements are built once per (instance, FD) and shared through the
// Searcher's cache set.

// fdPlan is the classification of the FDs of one join plan: the FDs
// anchored at a hop, and the rest, which the path kernel evaluates.
type fdPlan struct {
	anchors []anchoredFD
	rest    []fd.FD // clipped: appending copies
}

// anchoredFD is an FD whose path columns all read the rows of one hop.
type anchoredFD struct {
	f   fd.FD
	hop int // the hop, and its row-id vector on the path
	// cols are the FD's columns in the hop's view: LHS, then RHS.
	cols []int
	// key is the refinement's memo key: the hop's vertex key and the FD's
	// column names in the view.
	key string
}

// quality returns Q of the non-empty join path j of tg's join steps, for
// the FDs of tg: an anchored FD through its hop's refinement, every other
// FD through the path kernel, bit-identical to fd.QualitySetColumnar on j.
// scr holds the sweeps' tables.
func (sc *scope) quality(j *relation.Columnar, steps []sampling.ColumnarStep, tg *joingraph.TargetGraph, scr *relation.Scratch) (float64, error) {
	plan := sc.fdPlanOf(steps, j, tg)
	rest := plan.rest
	var anchors []fd.Anchor
	for i := range plan.anchors {
		a := &plan.anchors[i]
		ref := sc.s.refinementOf(a, steps[a.hop].C, j.NumRows(), scr)
		switch {
		case ref == nil || !ref.Factored():
			rest = append(rest, a.f)
		case !ref.Holds():
			anchors = append(anchors, fd.Anchor{Vec: a.hop, Ref: ref})
		}
	}
	return fd.QualityFactored(j, rest, anchors, scr)
}

// fdPlanOf returns the classification of the join plan of steps, whose
// path is j, computing it on the (X/Y split, plan)'s first evaluation.
func (sc *scope) fdPlanOf(steps []sampling.ColumnarStep, j *relation.Columnar, tg *joingraph.TargetGraph) *fdPlan {
	key := sc.planKey(steps)
	if p, ok := sc.s.caches.plans.Get(key); ok {
		return p
	}
	p := &fdPlan{}
	for _, f := range fd.Applicable(tg.FDs(), j.Schema()) {
		if a, ok := anchorOf(f, steps, j); ok {
			p.anchors = append(p.anchors, a)
		} else {
			p.rest = append(p.rest, f)
		}
	}
	p.rest = slices.Clip(p.rest)
	sc.s.caches.plans.Put(key, p)
	return p
}

// planKey identifies the join plan of steps — each hop's vertex and join
// attributes — under the scope's X/Y split, whose keep set fixes the views'
// column indexes. Attribute names are seller text, so every part is
// length-prefixed.
func (sc *scope) planKey(steps []sampling.ColumnarStep) string {
	var buf [256]byte
	b := append(buf[:0], sc.splitKey...)
	for _, st := range steps {
		b = strconv.AppendInt(b, int64(len(st.ID)), 10)
		b = append(b, ':')
		b = append(b, st.ID...)
		for _, a := range st.On {
			b = strconv.AppendInt(b, int64(len(a)), 10)
			b = append(b, ':')
			b = append(b, a...)
		}
		b = append(b, ';')
	}
	return string(b)
}

// anchorOf finds the first hop of steps that anchors the FD f on their
// path j: every column of f that j reads is read through that hop's row-id
// vector or is one of the hop's join attributes, and is dictionary-coded
// in the hop's view. The column → vector map is j's own (Origin), never a
// name looked up in a view: the join renames clashing columns, and a view
// may hold a renamed-looking name itself. Only a join attribute is looked
// up in the hop's view, by the name the join itself matched it on.
func anchorOf(f fd.FD, steps []sampling.ColumnarStep, j *relation.Columnar) (anchoredFD, bool) {
	attrs := f.Attrs()
	pathCols, err := j.Schema().Indexes(attrs...)
	if err != nil {
		return anchoredFD{}, false
	}
	cols := make([]int, len(attrs))
	for h, hop := range steps {
		view := hop.C
		ok := true
		for i, pc := range pathCols {
			vec, base := j.Origin(pc)
			switch {
			case vec == h:
				cols[i] = base
			case slices.Contains(hop.On, attrs[i]):
				cols[i] = view.Schema().Index(attrs[i])
			default:
				ok = false
			}
			if !ok || cols[i] < 0 || view.Dict(cols[i]) == nil {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		names := make([]string, len(cols))
		for i, c := range cols {
			names[i] = view.Schema().Column(c).Name
		}
		key := safekey.Join(hop.ID, safekey.Join(names[:len(names)-1]...), names[len(names)-1])
		return anchoredFD{f: f, hop: h, cols: cols, key: key}, true
	}
	return anchoredFD{}, false
}

// refinementOf returns a's refinement over its hop's view, or nil when
// there is none yet. The first refinement is built only by an evaluation
// whose path has at least as many rows as the view: refining costs a pass
// over the view, and a smaller path is cheaper to evaluate by the path
// kernel than to refine for — the pilot samples of a fresh graph are
// evaluated only a few times each. Nor is one built for a view too large
// for the memo to keep, which would refine it again on every evaluation.
func (s *Searcher) refinementOf(a *anchoredFD, view *relation.Columnar, pathRows int, scr *relation.Scratch) *fd.Refinement {
	if ref, ok := s.caches.refines.Get(a.key); ok {
		return ref
	}
	if pathRows < view.NumRows() || !s.caches.refines.Admits(view.NumRows()) {
		return nil
	}
	n := len(a.cols) - 1
	ref, err := fd.RefineBase(view, a.cols[:n], a.cols[n], scr)
	if err != nil {
		return nil // the path kernel reports it
	}
	s.caches.refines.Put(a.key, ref)
	return ref
}
