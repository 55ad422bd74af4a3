// Package policy defines the AcquisitionPolicy interface: a pluggable
// strategy for buying marketplace data under a budget. The paper's own
// heuristic search is one policy among several — "Try Before You Buy"
// (Azcoitia & Laoutaris) commits spend only after escalating pilot samples,
// and a greedy marginal-gain-per-dollar climb is the classic baseline. A
// policy plans sampling rounds, decides escalation, and returns ranked
// plans; the core middleware supplies the offline machinery (sample store,
// join graph, delta escalation) through the Host capability surface, so
// policies compose with persistence, caching and the service ledger for
// free.
//
// Policies register themselves by name in a process-wide registry
// (Register / Get / Names); the danced wire API exposes the registry via
// GET /v1/policies and threads the shopper's selection through
// search.Request.Policy.
package policy

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/marketplace"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/search"
)

// DefaultName is the policy used when a request names none: the paper's own
// two-step heuristic search.
const DefaultName = "dance"

// ParamSpec documents one tunable of a policy. All parameters are float64
// (the wire carries them as a name→number map) and optional: a request that
// omits one gets Default.
type ParamSpec struct {
	Name    string  `json:"name"`
	Default float64 `json:"default"`
	Doc     string  `json:"doc"`
}

// Request is an acquisition request as seen by a policy: the search request
// plus the ranked-mode knobs and the policy's own parameters.
type Request struct {
	search.Request
	// K > 0 asks for up to K ranked options (the top-k recommendation
	// mode); K ≤ 0 asks for the single correlation-best plan.
	K int
	// Weights score options in ranked mode.
	Weights search.ScoreWeights
	// Params are the policy-specific tunables, already merged from the
	// middleware configuration and the per-request overrides.
	Params map[string]float64
}

// Param returns the named parameter or def when unset.
func (r Request) Param(name string, def float64) float64 {
	if v, ok := r.Params[name]; ok {
		return v
	}
	return def
}

// Ranked is one plan a policy recommends: a search result (target graph +
// estimated metrics) with its combined score (0 in single-plan mode).
type Ranked struct {
	Result *search.Result
	Score  float64
}

// Snapshot is an immutable view of the middleware's offline state: the
// sample rate it was built at and a searcher over its join graph.
type Snapshot struct {
	Rate     float64
	Searcher *search.Searcher
}

// Limits are the middleware configuration bounds a policy must respect.
type Limits struct {
	// MaxSampleRounds bounds a policy's escalation loop.
	MaxSampleRounds int
	// RateGrowth is the configured per-round rate multiplier.
	RateGrowth float64
	// SampleRate is the configured initial rate.
	SampleRate float64
	// SampleSeed drives marketplace-side correlated sampling; policies
	// buying their own samples must use it so samples stay
	// join-consistent with the middleware's.
	SampleSeed uint64
	// Workers bounds a policy's own concurrency (0 = one per CPU).
	Workers int
	// MaxJoinAttrs caps join-attribute subsets per I-edge.
	MaxJoinAttrs int
}

// Source is one shopper-owned instance (the S of the request).
type Source struct {
	// Columnar is the source's data, dictionary-encoded once at
	// registration; join graphs over the source reuse it.
	Columnar *relation.Columnar
	FDs      []fd.FD
}

// SpendRound reports sample purchases a policy made directly against the
// marketplace (outside the Host's own offline store), so the middleware
// ledger — and every service ledger built on it — stays complete.
type SpendRound struct {
	FromRate  float64
	ToRate    float64
	FullCost  float64
	DeltaCost float64
}

// Host is the capability surface the middleware hands a policy. It wraps
// the shared offline machinery: snapshots are consistent, escalation is
// serialized and delta-billed, and all spend lands in one ledger.
type Host interface {
	// Snapshot returns the current offline state, running the offline
	// phase (catalog fetch, correlated sampling, graph build) first if it
	// never completed.
	Snapshot(ctx context.Context) (Snapshot, error)
	// Escalate grows the sample rate past seenRate and rebuilds
	// incrementally (delta purchases only). It reports whether the caller
	// should retry: false means the rate was already 1.
	Escalate(ctx context.Context, seenRate float64) (bool, error)
	// Market is the marketplace the policy may sample and quote against.
	// Purchases made here directly must be reported via RecordSpend.
	Market() marketplace.Market
	// Sources lists the shopper-owned instances.
	Sources() []Source
	// Limits returns the configuration bounds.
	Limits() Limits
	// RecordSpend books a policy-side sample purchase into the middleware
	// ledger.
	RecordSpend(r SpendRound)
}

// Policy is one acquisition strategy. Implementations must be stateless
// across calls (a single registered value serves every request
// concurrently) and deterministic: for a fixed (seed, marketplace, request)
// the returned plans must be bit-identical at every Workers count.
type Policy interface {
	// Name is the registry key (also the wire name).
	Name() string
	// Doc is a one-line description for GET /v1/policies.
	Doc() string
	// Params documents the tunables the policy reads from Request.Params.
	Params() []ParamSpec
	// Acquire plans the acquisition: in single-plan mode (req.K ≤ 0) it
	// returns exactly one Ranked; in ranked mode up to req.K, best first.
	// Requests whose constraints admit no plan fail with an error wrapping
	// search.ErrInfeasible — for pilot-based policies, abandoning every
	// candidate is such a request-level outcome, not an infrastructure
	// error.
	Acquire(ctx context.Context, h Host, req Request) ([]Ranked, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Policy{}
)

// Register adds a policy under its name. Duplicate names panic: policies
// register from init functions, and a silent overwrite would make plan
// provenance depend on package-initialization order.
func Register(p Policy) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[p.Name()]; dup {
		panic(fmt.Sprintf("policy: duplicate registration of %q", p.Name()))
	}
	registry[p.Name()] = p
}

// Get resolves a policy by name ("" means DefaultName).
func Get(name string) (Policy, error) {
	if name == "" {
		name = DefaultName
	}
	regMu.RLock()
	defer regMu.RUnlock()
	p, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (have %v): %w", name, namesLocked(), search.ErrInfeasible)
	}
	return p, nil
}

// Names lists the registered policies, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// searchEscalating is the round loop of the policies that search the
// Host's own offline state: search the current snapshot — single in
// single-plan mode, ranked when req.K > 0 — and return on success; on a
// failed search, unless ctx is done or the request is one no sample can
// fix (search.ErrInvalidRequest), escalate the sample rate and search
// again, for up to Limits.MaxSampleRounds rounds. When the rounds run out
// or the rate cannot grow, the last search error is wrapped as "<what>
// after N sample rounds".
func searchEscalating(ctx context.Context, h Host, req Request, what string,
	single func(*search.Searcher, context.Context, search.Request) (*search.Result, error),
	ranked func(*search.Searcher, context.Context, search.Request, int, search.ScoreWeights) ([]search.Option, error)) ([]Ranked, error) {

	rounds := h.Limits().MaxSampleRounds
	var lastErr error
	for round := 0; round < rounds; round++ {
		snap, err := h.Snapshot(ctx)
		if err != nil {
			return nil, err
		}
		var out []Ranked
		if req.K > 0 {
			var options []search.Option
			if options, err = ranked(snap.Searcher, ctx, req.Request, req.K, req.Weights); err == nil {
				out = rankedOf(options)
			}
		} else {
			var res *search.Result
			if res, err = single(snap.Searcher, ctx, req.Request); err == nil {
				out = []Ranked{{Result: res}}
			}
		}
		if err == nil {
			return out, nil
		}
		if ctx.Err() != nil {
			return nil, err
		}
		if errors.Is(err, search.ErrInvalidRequest) {
			return nil, fmt.Errorf("%s: %w", what, err)
		}
		lastErr = err
		if round == rounds-1 {
			break // out of rounds: don't buy samples nothing will search
		}
		retry, err := h.Escalate(ctx, snap.Rate)
		if err != nil {
			return nil, err
		}
		if !retry {
			break
		}
	}
	return nil, fmt.Errorf("%s after %d sample rounds: %w", what, rounds, lastErr)
}

// rankedOf converts scored search options to Ranked plans, in order.
func rankedOf(options []search.Option) []Ranked {
	out := make([]Ranked, len(options))
	for i, o := range options {
		out[i] = Ranked{Result: o.Result, Score: o.Score}
	}
	return out
}

// PrimaryJoinAttr picks the attribute of info shared with the most other
// catalog entries: correlated sampling needs a join attribute, and the most
// widely shared one preserves the most join structure (see DESIGN.md). The
// middleware's offline phase and pilot-sampling policies must agree on this
// choice, or a policy's pilot samples would not extend into the store's.
func PrimaryJoinAttr(info marketplace.DatasetInfo, catalog []marketplace.DatasetInfo) string {
	best, bestCount := "", -1
	for _, c := range info.Attrs {
		count := 0
		for _, other := range catalog {
			if other.Name == info.Name {
				continue
			}
			for _, oc := range other.Attrs {
				if oc.Name == c.Name {
					count++
					break
				}
			}
		}
		if count > bestCount {
			best, bestCount = c.Name, count
		}
	}
	return best
}
