package policy

import (
	"context"

	"github.com/dance-db/dance/internal/search"
)

func init() { Register(dancePolicy{}) }

// dancePolicy is the paper's own strategy, extracted verbatim from the
// pre-policy middleware loop: search the current join graph; on an
// infeasible result buy more samples (rate × RateGrowth, delta-billed) and
// retry, up to MaxSampleRounds. Its plans, metrics, eval counts and ledger
// are pinned bit-identical to the pre-refactor output at every Workers
// count (internal/core's pinned-equivalence goldens).
type dancePolicy struct{}

func (dancePolicy) Name() string { return DefaultName }

func (dancePolicy) Doc() string {
	return "the paper's two-step heuristic: Steiner-tree candidates + MCMC over join variants, escalating the sample rate when infeasible"
}

func (dancePolicy) Params() []ParamSpec { return nil }

func (dancePolicy) Acquire(ctx context.Context, h Host, req Request) ([]Ranked, error) {
	what := "dance: no feasible acquisition"
	if req.K > 0 {
		what += " options"
	}
	return searchEscalating(ctx, h, req, what, (*search.Searcher).Heuristic, (*search.Searcher).TopK)
}
