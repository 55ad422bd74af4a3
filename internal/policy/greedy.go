package policy

import (
	"context"

	"github.com/dance-db/dance/internal/search"
)

func init() { Register(greedyPolicy{}) }

// greedyPolicy is the marginal-gain-per-dollar baseline: the same Step 1
// candidates and escalation loop as dance, but Step 2 is a deterministic
// hill-climb that always buys the variant swap with the best correlation
// gain per extra dollar (search.GreedyAcquire) instead of a Metropolis
// walk. It is the control arm of the bake-off: any spread between it and
// dance isolates what the MCMC exploration is worth.
type greedyPolicy struct{}

func (greedyPolicy) Name() string { return "greedy" }

func (greedyPolicy) Doc() string {
	return "marginal-gain-per-dollar baseline: deterministic hill-climb over join variants, escalating the sample rate when infeasible"
}

func (greedyPolicy) Params() []ParamSpec { return nil }

func (greedyPolicy) Acquire(ctx context.Context, h Host, req Request) ([]Ranked, error) {
	return searchEscalating(ctx, h, req, "policy greedy: no feasible acquisition",
		(*search.Searcher).GreedyAcquire, (*search.Searcher).GreedyTopK)
}
