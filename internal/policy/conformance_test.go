package policy_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/dance-db/dance/internal/core"
	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/marketplace"
	"github.com/dance-db/dance/internal/policy"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/search"
	"github.com/dance-db/dance/internal/workload"
)

// The conformance suite holds every registered policy to the contract the
// middleware (and the danced service above it) relies on: plans respect the
// request budget, cancellation aborts mid-acquisition, and output is
// bit-identical at every worker count. New policies get the suite for free
// by registering.

func conformanceMW(t *testing.T, workers int) (*core.Dance, search.Request) {
	t.Helper()
	spec, err := workload.ParseSpec("chain:3,decoys=3")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(spec, 9)
	if err != nil {
		t.Fatal(err)
	}
	mw := core.New(w.Marketplace(), core.Config{SampleRate: 0.5, SampleSeed: 86, Workers: workers})
	req := search.Request{
		TargetAttrs: []string{w.Truth.X, w.Truth.Y},
		Budget:      w.Truth.PlanCost * (1 + 1e-6),
		Iterations:  40,
		Seed:        22,
		Workers:     workers,
	}
	return mw, req
}

// planKey flattens a plan to a comparable string: queries plus the exact
// bits of the estimated metrics.
func planKey(p *core.Plan) string {
	hx := func(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }
	var b strings.Builder
	for _, q := range p.Queries {
		b.WriteString(q.String())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "est=%s,%s,%s,%s evals=%d",
		hx(p.Est.Correlation), hx(p.Est.Quality), hx(p.Est.Weight), hx(p.Est.Price), p.Evals)
	return b.String()
}

func TestPolicyConformance(t *testing.T) {
	names := policy.Names()
	if len(names) < 3 {
		t.Fatalf("registry has %d policies, want ≥ 3 (dance, greedy, try-before-you-buy): %v", len(names), names)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Run("budget", func(t *testing.T) { testPolicyBudget(t, name) })
			t.Run("cancellation", func(t *testing.T) { testPolicyCancellation(t, name) })
			t.Run("workers-deterministic", func(t *testing.T) { testPolicyWorkersDeterministic(t, name) })
		})
	}
}

// testPolicyBudget: with the budget pinned to the ground-truth optimum, a
// policy either returns plans priced within it or reports the request
// infeasible — it never recommends an over-budget purchase.
func testPolicyBudget(t *testing.T, name string) {
	mw, req := conformanceMW(t, 0)
	req.Policy = name
	plan, err := mw.Acquire(context.Background(), req)
	if err != nil {
		if errors.Is(err, search.ErrInfeasible) {
			return // refusing is conformant; overspending would not be
		}
		t.Fatal(err)
	}
	if plan.Est.Price > req.Budget {
		t.Errorf("plan price %v exceeds budget %v", plan.Est.Price, req.Budget)
	}
	ranked, err := mw.AcquireTopK(context.Background(), req, 3, search.DefaultScoreWeights())
	if err != nil {
		if errors.Is(err, search.ErrInfeasible) {
			return
		}
		t.Fatal(err)
	}
	for i, r := range ranked {
		if r.Plan.Est.Price > req.Budget {
			t.Errorf("top-k option %d price %v exceeds budget %v", i, r.Plan.Est.Price, req.Budget)
		}
	}
}

// cancellingMarket cancels the acquisition's own context after n sampling
// calls, so the policy is interrupted mid-round rather than before it
// starts.
type cancellingMarket struct {
	marketplace.Market
	cancel context.CancelFunc
	after  int32
}

func (m *cancellingMarket) tick() {
	if atomic.AddInt32(&m.after, -1) == 0 {
		m.cancel()
	}
}

func (m *cancellingMarket) Sample(ctx context.Context, name string, joinAttrs []string, rate float64, seed uint64) (*relation.Table, float64, error) {
	defer m.tick()
	return m.Market.Sample(ctx, name, joinAttrs, rate, seed)
}

func (m *cancellingMarket) SampleDelta(ctx context.Context, name string, joinAttrs []string, fromRate, toRate float64, seed uint64) (*relation.Table, float64, error) {
	defer m.tick()
	return m.Market.SampleDelta(ctx, name, joinAttrs, fromRate, toRate, seed)
}

func (m *cancellingMarket) DatasetFDs(ctx context.Context, name string) ([]fd.FD, error) {
	defer m.tick()
	return m.Market.DatasetFDs(ctx, name)
}

// testPolicyCancellation: a context cancelled mid-acquisition (after the
// first sampling round has begun) surfaces as an error — the policy must not
// swallow it and return a plan computed on a dead context.
func testPolicyCancellation(t *testing.T, name string) {
	spec, err := workload.ParseSpec("chain:3,decoys=3")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(spec, 9)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	market := &cancellingMarket{Market: w.Marketplace(), cancel: cancel, after: 2}
	mw := core.New(market, core.Config{SampleRate: 0.5, SampleSeed: 86, Workers: 1})
	req := search.Request{
		TargetAttrs: []string{w.Truth.X, w.Truth.Y},
		Budget:      w.Truth.PlanCost * (1 + 1e-6),
		Iterations:  40,
		Seed:        22,
		Workers:     1,
		Policy:      name,
	}
	if _, err := mw.Acquire(ctx, req); err == nil {
		t.Fatal("acquisition on a cancelled context returned a plan")
	} else if !errors.Is(err, context.Canceled) && !errors.Is(err, search.ErrInfeasible) {
		// Cancellation mid-search may legitimately surface as the wrapped
		// search error (the policy reports what it could not finish), but
		// the chain must carry one of the two sentinels.
		t.Fatalf("cancelled acquisition error %v carries neither context.Canceled nor ErrInfeasible", err)
	}
}

// testPolicyWorkersDeterministic: the same request at Workers 1 and 8 must
// produce bit-identical plans (or agree the request is infeasible) — worker
// count changes how a search runs, never what it computes.
func testPolicyWorkersDeterministic(t *testing.T, name string) {
	keys := make([]string, 2)
	errs := make([]error, 2)
	for i, workers := range []int{1, 8} {
		mw, req := conformanceMW(t, workers)
		req.Policy = name
		plan, err := mw.Acquire(context.Background(), req)
		if err != nil {
			if !errors.Is(err, search.ErrInfeasible) {
				t.Fatal(err)
			}
			errs[i] = err
			continue
		}
		keys[i] = planKey(plan)
	}
	if (errs[0] == nil) != (errs[1] == nil) {
		t.Fatalf("feasibility diverged across workers: w1 err=%v, w8 err=%v", errs[0], errs[1])
	}
	if keys[0] != keys[1] {
		t.Errorf("plan diverged across workers:\nw1:\n%s\nw8:\n%s", keys[0], keys[1])
	}
}

// The policies that escalate the Host's own sample rate share one round
// loop but keep their own give-up messages, single-plan and ranked.
func TestEscalatingPoliciesErrorText(t *testing.T) {
	for _, tc := range []struct {
		policy string
		k      int
		want   string
	}{
		{"dance", 0, "dance: no feasible acquisition after "},
		{"dance", 3, "dance: no feasible acquisition options after "},
		{"greedy", 0, "policy greedy: no feasible acquisition after "},
		{"greedy", 3, "policy greedy: no feasible acquisition after "},
	} {
		mw, req := conformanceMW(t, 2)
		req.Policy = tc.policy
		req.Budget = 1e-9 // no plan is this cheap
		var err error
		if tc.k > 0 {
			_, err = mw.AcquireTopK(context.Background(), req, tc.k, search.DefaultScoreWeights())
		} else {
			_, err = mw.Acquire(context.Background(), req)
		}
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) || !strings.Contains(err.Error(), " sample rounds: search: ") {
			t.Errorf("%s k=%d: error %v, want %q… sample rounds: search: …", tc.policy, tc.k, err, tc.want)
		}
		if !errors.Is(err, search.ErrInfeasible) {
			t.Errorf("%s k=%d: error %v does not wrap ErrInfeasible", tc.policy, tc.k, err)
		}
	}
}

// countingMarket counts the sampling calls a policy makes and sums what
// the marketplace charged for them.
type countingMarket struct {
	marketplace.Market
	samples, deltas atomic.Int32
	mu              sync.Mutex
	charged         float64
}

func (m *countingMarket) charge(cost float64) {
	m.mu.Lock()
	m.charged += cost
	m.mu.Unlock()
}

func (m *countingMarket) Sample(ctx context.Context, name string, joinAttrs []string, rate float64, seed uint64) (*relation.Table, float64, error) {
	m.samples.Add(1)
	t, cost, err := m.Market.Sample(ctx, name, joinAttrs, rate, seed)
	m.charge(cost)
	return t, cost, err
}

func (m *countingMarket) SampleDelta(ctx context.Context, name string, joinAttrs []string, fromRate, toRate float64, seed uint64) (*relation.Table, float64, error) {
	m.deltas.Add(1)
	t, cost, err := m.Market.SampleDelta(ctx, name, joinAttrs, fromRate, toRate, seed)
	m.charge(cost)
	return t, cost, err
}

// A request no sample can fix — an attribute nobody sells, a lone
// source-less target — fails as search.ErrInvalidRequest after the first
// sampling round: no policy escalates it, so the only spend is the first
// round's (the offline samples, or the try-before-you-buy pilot).
func TestInvalidRequestBuysNoEscalation(t *testing.T) {
	spec, err := workload.ParseSpec("chain:3,decoys=3")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(spec, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range policy.Names() {
		for _, targets := range [][]string{{w.Truth.X, "nosuchattr"}, {w.Truth.X}} {
			market := &countingMarket{Market: w.Marketplace()}
			mw := core.New(market, core.Config{SampleRate: 0.5, SampleSeed: 86, Workers: 1})
			catalog, err := market.Catalog(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			req := search.Request{TargetAttrs: targets, Iterations: 40, Seed: 22, Workers: 1, Policy: name}
			_, err = mw.Acquire(context.Background(), req)
			if !errors.Is(err, search.ErrInvalidRequest) || !errors.Is(err, search.ErrInfeasible) {
				t.Errorf("%s %v: error %v, want ErrInvalidRequest wrapping ErrInfeasible", name, targets, err)
			}
			if n := market.deltas.Load(); n != 0 {
				t.Errorf("%s %v: %d SampleDelta calls, want 0", name, targets, n)
			}
			if n := market.samples.Load(); int(n) != len(catalog) {
				t.Errorf("%s %v: %d Sample calls, want one per listing (%d)", name, targets, n, len(catalog))
			}
			if got := mw.SampleCost(); math.Abs(got-market.charged) > 1e-9*math.Max(1, got) {
				t.Errorf("%s %v: SampleCost %v, but the first round charged %v", name, targets, got, market.charged)
			}
		}
	}
}
