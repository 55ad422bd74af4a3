package search

import (
	"context"
	"fmt"

	"github.com/dance-db/dance/internal/joingraph"
	"github.com/dance-db/dance/internal/parallel"
)

// This file implements the marginal-gain-per-dollar baseline: instead of
// Algorithm 1's Metropolis walk, each Step 1 candidate hill-climbs over
// AS-edge variants, always taking the swap with the best marginal
// correlation gain per marginal dollar. It is the classic budgeted greedy
// the acquisition literature benchmarks against (DAVED, "Data Acquisition
// for Improving ML Models"), kept fully deterministic: neighbors enumerate
// in fixed (edge, variant) order, evaluations fan out over indexed slots,
// and ties resolve to the first neighbor — so results are bit-identical at
// every Workers count.

// greedyMove ranks one candidate move. Moves compare lexicographically by
// (class, a, b): lower class first, then higher a, then higher b. Exact
// float ties fall back to enumeration order (first wins).
type greedyMove struct {
	class int
	a, b  float64
}

func (m greedyMove) better(o greedyMove) bool {
	if m.class != o.class {
		return m.class < o.class
	}
	if m.a != o.a {
		return m.a > o.a
	}
	return m.b > o.b
}

// greedyRank classifies the move cur→next. Classes: 0 = feasible
// improvement at no extra cost (rank by gain, then by savings); 1 =
// feasible improvement bought with extra spend (rank by gain per dollar,
// then gain); 2 = escape move for an infeasible current state (rank toward
// feasibility: feasible next states first via class 0/1, else strictly
// cheaper ones). A negative class means "not a move".
func greedyRank(curM, nextM Metrics, curFeasible, nextFeasible bool) greedyMove {
	none := greedyMove{class: -1}
	if !curFeasible {
		if nextFeasible {
			return greedyMove{class: 0, a: nextM.Correlation, b: -nextM.Price}
		}
		if nextM.Price < curM.Price {
			return greedyMove{class: 2, a: -nextM.Price, b: nextM.Correlation}
		}
		return none
	}
	if !nextFeasible {
		return none
	}
	dCorr := nextM.Correlation - curM.Correlation
	dPrice := nextM.Price - curM.Price
	if dCorr <= 0 {
		return none
	}
	if dPrice <= 0 {
		return greedyMove{class: 0, a: dCorr, b: -dPrice}
	}
	return greedyMove{class: 1, a: dCorr / dPrice, b: dCorr}
}

// greedyNeighbor is one variant swap of the current target graph.
type greedyNeighbor struct {
	edge, variant int
}

// greedyRun climbs every Step 1 candidate and reports each feasible state
// it evaluates to visit. It returns the per-request evaluation count.
func (s *Searcher) greedyRun(ctx context.Context, req Request, visit func(*joingraph.TargetGraph, Metrics)) (evals int, err error) {
	plans, sc, err := s.phase0(ctx, req)
	if err != nil {
		return 0, err
	}
	for _, p := range plans {
		if p.tg == nil {
			continue
		}
		cur, curM := p.tg, p.init
		evals++
		if curM.Feasible(req) {
			visit(cur, curM)
		}
		// Each candidate's climb gets the same proposal budget as an MCMC
		// chain: ℓ evaluations.
		for used := 0; used < req.Iterations; {
			var nbrs []greedyNeighbor
			for _, ei := range p.swappable {
				e := cur.Edges[ei]
				for nv := range s.G.EdgeBetween(e.I, e.J).Variants {
					if nv != e.Variant {
						nbrs = append(nbrs, greedyNeighbor{edge: ei, variant: nv})
					}
				}
			}
			if len(nbrs) == 0 {
				break
			}
			if rem := req.Iterations - used; len(nbrs) > rem {
				nbrs = nbrs[:rem]
			}
			tgs := make([]*joingraph.TargetGraph, len(nbrs))
			for i, nb := range nbrs {
				tg := cur.Clone()
				tg.Edges[nb.edge].Variant = nb.variant
				tgs[i] = tg
			}
			ms := make([]Metrics, len(nbrs))
			err := parallel.ForEachWorker(ctx, len(nbrs), sc.workers, func(w, i int) error {
				var err error
				ms[i], err = sc.evaluate(ctx, tgs[i], w, 1)
				return err
			})
			if err != nil {
				return evals, err
			}
			used += len(nbrs)
			evals += len(nbrs)
			curFeasible := curM.Feasible(req)
			bestIdx, bestMove := -1, greedyMove{class: -1}
			for i, nm := range ms {
				if nm.Feasible(req) {
					visit(tgs[i], nm)
				}
				if mv := greedyRank(curM, nm, curFeasible, nm.Feasible(req)); mv.class >= 0 && (bestIdx < 0 || mv.better(bestMove)) {
					bestIdx, bestMove = i, mv
				}
			}
			if bestIdx < 0 {
				break // local optimum (or no way toward feasibility)
			}
			cur, curM = tgs[bestIdx], ms[bestIdx]
		}
	}
	return evals, nil
}

// GreedyAcquire runs the greedy baseline and returns the feasible state
// with the highest estimated correlation across all climbs.
func (s *Searcher) GreedyAcquire(ctx context.Context, req Request) (*Result, error) {
	req = req.withDefaults()
	var best bestFold
	evals, err := s.greedyRun(ctx, req, best.add)
	if err != nil {
		return nil, err
	}
	if !best.found {
		return nil, fmt.Errorf("search: greedy found no feasible target graph (budget %v, α %v, β %v): %w",
			req.Budget, req.Alpha, req.Beta, ErrInfeasible)
	}
	return &Result{TG: best.tg, Est: best.m, Evals: evals, Considered: evals}, nil
}

// GreedyTopK ranks the distinct feasible states the greedy climbs visited,
// exactly as TopK ranks the MCMC walk's.
func (s *Searcher) GreedyTopK(ctx context.Context, req Request, k int, weights ScoreWeights) ([]Option, error) {
	req = req.withDefaults()
	fold := newTopKFold(req, weights)
	evals, err := s.greedyRun(ctx, req, fold.add)
	if err != nil {
		return nil, err
	}
	options := fold.ranked(k, evals)
	if options == nil {
		return nil, fmt.Errorf("search: greedy found no feasible acquisition options (budget %v, α %v, β %v): %w",
			req.Budget, req.Alpha, req.Beta, ErrInfeasible)
	}
	return options, nil
}
