package policy

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/joingraph"
	"github.com/dance-db/dance/internal/marketplace"
	"github.com/dance-db/dance/internal/parallel"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/search"
)

func init() { Register(tbybPolicy{}) }

// tbybPolicy implements Try-Before-You-Buy (Azcoitia & Laoutaris): buy
// cheap pilot samples of *every* listing, search them for candidate plans,
// abandon the candidates whose pilot correlation is weak, and escalate only
// the survivors' datasets — via Market.SampleDelta, so every escalation
// bills exactly the missing prefix rows and an abandoned candidate's total
// bill is its pilot prefix, nothing more. The policy owns its samples
// (private encodings, built once per pilot and extended with
// Columnar.AppendTable along the canonical prefix order) and books the
// spend into the middleware ledger via Host.RecordSpend.
type tbybPolicy struct{}

// tbybName is the wire name; it appears in ledgers, plan echoes and the
// bake-off table.
const tbybName = "try-before-you-buy"

func (tbybPolicy) Name() string { return tbybName }

func (tbybPolicy) Doc() string {
	return "escalating pilot samples with early abandon: weak-ρ candidates bill only the pilot prefix, survivors escalate via delta purchases"
}

func (tbybPolicy) Params() []ParamSpec {
	return []ParamSpec{
		{Name: "pilot_rate", Default: 0.05, Doc: "sampling rate of the initial pilot round over the whole catalog"},
		{Name: "growth", Default: 3, Doc: "per-round rate multiplier for surviving candidates (capped at 1)"},
		{Name: "abandon", Default: 0.5, Doc: "keep candidates with |ρ| ≥ abandon × best |ρ|; the rest bill only the pilot prefix"},
		{Name: "rounds", Default: 2, Doc: "escalation rounds after the pilot"},
		{Name: "shortlist", Default: 4, Doc: "max candidates carried into the next escalation round"},
		{Name: "min_rho", Default: 0, Doc: "abandon the whole acquisition (request-infeasible) when the best final |ρ| is below this"},
	}
}

// tbybPilot is one dataset's policy-private sample state.
type tbybPilot struct {
	info     marketplace.DatasetInfo
	joinAttr string
	cols     *relation.Columnar
	fds      []fd.FD
}

func (tbybPolicy) Acquire(ctx context.Context, h Host, req Request) ([]Ranked, error) {
	lim := h.Limits()
	market := h.Market()
	pilotRate := math.Min(1, math.Max(req.Param("pilot_rate", 0.05), 1e-3))
	growth := math.Max(req.Param("growth", 3), 1.5)
	abandon := math.Min(1, math.Max(req.Param("abandon", 0.5), 0))
	maxRounds := int(req.Param("rounds", 2))
	if maxRounds < 0 {
		maxRounds = 0
	}
	shortlist := int(req.Param("shortlist", 4))
	if shortlist < 1 {
		shortlist = 1
	}
	minRho := req.Param("min_rho", 0)
	weights := req.Weights
	if weights == (search.ScoreWeights{}) {
		weights = search.DefaultScoreWeights()
	}

	catalog, err := market.Catalog(ctx)
	if err != nil {
		return nil, fmt.Errorf("policy %s: catalog: %w", tbybName, err)
	}
	if len(catalog) == 0 {
		return nil, fmt.Errorf("policy %s: marketplace catalog is empty", tbybName)
	}

	// Pilot round: one cheap correlated sample (and the free FDs) per
	// listing, fanned out over indexed slots so cost accounting and table
	// identity stay deterministic at every worker count.
	pilots := make([]tbybPilot, len(catalog))
	costs := make([]float64, len(catalog))
	err = parallel.ForEach(ctx, len(catalog), lim.Workers, func(i int) error {
		info := catalog[i]
		p := &pilots[i]
		p.info = info
		p.joinAttr = PrimaryJoinAttr(info, catalog)
		t, cost, err := market.Sample(ctx, info.Name, []string{p.joinAttr}, pilotRate, lim.SampleSeed)
		costs[i] = cost
		if err != nil {
			return fmt.Errorf("policy %s: pilot sampling %s: %w", tbybName, info.Name, err)
		}
		p.cols = relation.ToColumnar(t)
		fds, err := market.DatasetFDs(ctx, info.Name)
		if err != nil {
			return fmt.Errorf("policy %s: FDs of %s: %w", tbybName, info.Name, err)
		}
		p.fds = fds
		return nil
	})
	spent := 0.0
	for _, c := range costs {
		spent += c
	}
	if spent > 0 {
		h.RecordSpend(SpendRound{FromRate: 0, ToRate: pilotRate, FullCost: spent})
	}
	if err != nil {
		return nil, err
	}

	byName := make(map[string]*tbybPilot, len(pilots))
	active := make([]string, 0, len(pilots))
	for i := range pilots {
		byName[pilots[i].info.Name] = &pilots[i]
		active = append(active, pilots[i].info.Name)
	}

	rate := pilotRate
	for round := 0; ; round++ {
		options, err := tbybSearch(ctx, h, req, byName, active, weights, shortlist)
		if err != nil {
			if errors.Is(err, search.ErrInfeasible) && !errors.Is(err, search.ErrInvalidRequest) &&
				round < maxRounds && rate < 1 {
				// Nothing feasible on these samples yet: escalate every
				// active listing and look again.
				next := math.Min(1, rate*growth)
				if err := tbybEscalate(ctx, h, lim, byName, active, rate, next); err != nil {
					return nil, err
				}
				rate = next
				continue
			}
			return nil, fmt.Errorf("policy %s: %w", tbybName, err)
		}

		// Early abandon: candidates whose pilot ρ is weak relative to the
		// round's best never escalate — their datasets have already billed
		// their full cost (the pilot prefix).
		bestRho := 0.0
		for _, o := range options {
			if r := math.Abs(o.Result.Est.Correlation); r > bestRho {
				bestRho = r
			}
		}
		var survivors []search.Option
		for _, o := range options {
			if math.Abs(o.Result.Est.Correlation) >= abandon*bestRho {
				survivors = append(survivors, o)
			}
			if len(survivors) == shortlist {
				break
			}
		}

		if round == maxRounds || rate >= 1 {
			if bestRho < minRho {
				return nil, fmt.Errorf("policy %s: best pilot correlation %.4f below min_rho %.4f, acquisition abandoned: %w",
					tbybName, bestRho, minRho, search.ErrInfeasible)
			}
			return tbybFinalize(req, survivors), nil
		}

		// Escalate only the datasets the surviving candidates touch; the
		// rest drop out of the next round's graph at their pilot prefix.
		keep := map[string]bool{}
		for _, o := range survivors {
			tg := o.Result.TG
			for _, v := range tg.Vertices {
				inst := tg.G.Instances[v]
				if !inst.Owned {
					keep[inst.Name] = true
				}
			}
		}
		next := math.Min(1, rate*growth)
		nextActive := make([]string, 0, len(keep))
		for _, name := range active {
			if keep[name] {
				nextActive = append(nextActive, name)
			}
		}
		sort.Strings(nextActive)
		if err := tbybEscalate(ctx, h, lim, byName, nextActive, rate, next); err != nil {
			return nil, err
		}
		active, rate = nextActive, next
	}
}

// tbybSearch builds a join graph over the policy's private samples of the
// active listings (plus the shopper's owned sources) and ranks candidate
// plans on it.
func tbybSearch(ctx context.Context, h Host, req Request, byName map[string]*tbybPilot, active []string, weights search.ScoreWeights, shortlist int) ([]search.Option, error) {
	var instances []*joingraph.Instance
	for _, s := range h.Sources() {
		instances = append(instances, &joingraph.Instance{
			Name:     s.Columnar.Name,
			Columnar: s.Columnar,
			FullRows: s.Columnar.NumRows(),
			FDs:      s.FDs,
			Owned:    true,
		})
	}
	for _, name := range active {
		p := byName[name]
		instances = append(instances, &joingraph.Instance{
			Name:     p.info.Name,
			Columnar: p.cols,
			FullRows: p.info.Rows,
			FDs:      p.fds,
		})
	}
	g, err := joingraph.Build(instances, joingraph.Config{
		MaxJoinAttrs: h.Limits().MaxJoinAttrs,
		Quoter:       h.Market(),
	})
	if err != nil {
		return nil, fmt.Errorf("join graph over pilot samples: %w", err)
	}
	k := shortlist
	if req.K > k {
		k = req.K
	}
	return search.NewSearcher(g).TopK(ctx, req.Request, k, weights)
}

// tbybEscalate tops the named listings' private samples up from rate to
// next with delta purchases and books the spend.
func tbybEscalate(ctx context.Context, h Host, lim Limits, byName map[string]*tbybPilot, names []string, rate, next float64) error {
	if next <= rate || len(names) == 0 {
		return nil
	}
	market := h.Market()
	costs := make([]float64, len(names))
	merged := make([]*relation.Columnar, len(names))
	err := parallel.ForEach(ctx, len(names), lim.Workers, func(i int) error {
		p := byName[names[i]]
		delta, cost, err := market.SampleDelta(ctx, p.info.Name, []string{p.joinAttr}, rate, next, lim.SampleSeed)
		costs[i] = cost
		if err != nil {
			return fmt.Errorf("policy %s: delta sampling %s: %w", tbybName, p.info.Name, err)
		}
		c, err := p.cols.AppendTable(delta)
		if err != nil {
			return fmt.Errorf("policy %s: merging delta of %s: %w", tbybName, p.info.Name, err)
		}
		merged[i] = c
		return nil
	})
	spent := 0.0
	for _, c := range costs {
		spent += c
	}
	if spent > 0 {
		h.RecordSpend(SpendRound{FromRate: rate, ToRate: next, DeltaCost: spent})
	}
	if err != nil {
		return err
	}
	for i, name := range names {
		byName[name].cols = merged[i]
	}
	return nil
}

// tbybFinalize maps the surviving options to the requested mode: all of
// them (best score first) in ranked mode, the correlation-best one in
// single-plan mode.
func tbybFinalize(req Request, survivors []search.Option) []Ranked {
	if req.K > 0 {
		return rankedOf(survivors[:min(req.K, len(survivors))])
	}
	best := 0
	for i := 1; i < len(survivors); i++ {
		if survivors[i].Result.Est.Correlation > survivors[best].Result.Est.Correlation {
			best = i
		}
	}
	return []Ranked{{Result: survivors[best].Result, Score: survivors[best].Score}}
}
