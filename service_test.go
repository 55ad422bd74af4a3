package dance_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	dance "github.com/dance-db/dance"
)

// serviceFixture wires the full remote topology of the acceptance test: an
// httptest-hosted marketplace, a middleware talking to it over HTTP, and a
// danced service (AcquireHandler) hosted on a second httptest server.
func serviceFixture(t *testing.T, seed int64) (*dance.AcquireClient, *dance.InMemoryMarket) {
	t.Helper()
	market, own := marketFixture(seed)
	marketSrv := httptest.NewServer(dance.Handler(market))
	t.Cleanup(marketSrv.Close)

	mw := dance.New(dance.NewMarketClient(marketSrv.URL), dance.Config{SampleRate: 0.9, SampleSeed: 4})
	mw.AddSource(own, nil)

	danced := httptest.NewServer(dance.AcquireHandler(mw))
	t.Cleanup(danced.Close)
	return dance.NewAcquireClient(danced.URL), market
}

// The acceptance flow: acquire a plan over HTTP, fetch it back by ID,
// execute it, and read the ledger.
func TestDancedAcquireExecuteEndToEnd(t *testing.T) {
	client, market := serviceFixture(t, 1)
	ctx := context.Background()

	plan, err := client.Acquire(ctx, dance.AcquireRequest{
		SourceAttrs: []string{"income"},
		TargetAttrs: []string{"riskband"},
		Budget:      1e9,
		Iterations:  40,
		Seed:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.ID == "" || len(plan.Queries) == 0 {
		t.Fatalf("plan = %+v", plan)
	}
	if plan.Est.Correlation <= 0 || plan.Est.Price <= 0 {
		t.Fatalf("estimates = %+v", plan.Est)
	}
	for _, q := range plan.Queries {
		if !strings.HasPrefix(q.SQL, "SELECT ") {
			t.Fatalf("query %q is not SQL-shaped", q.SQL)
		}
	}

	fetched, err := client.Plan(ctx, plan.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fetched.ID != plan.ID || len(fetched.Queries) != len(plan.Queries) {
		t.Fatalf("GET /v1/plans/{id} = %+v, want %+v", fetched, plan)
	}

	purchase, err := client.Execute(ctx, plan.ID)
	if err != nil {
		t.Fatal(err)
	}
	if purchase.JoinedRows == 0 {
		t.Fatal("executed purchase joined zero rows")
	}
	if purchase.Realized.Correlation <= 0 {
		t.Fatalf("realized correlation = %v", purchase.Realized.Correlation)
	}
	if purchase.TotalPrice <= 0 {
		t.Fatal("purchase should cost money")
	}
	// The marketplace's own books agree with what the service reports.
	if got := market.Ledger().TotalByKind("query"); got != purchase.TotalPrice {
		t.Fatalf("marketplace query ledger %v != purchase price %v", got, purchase.TotalPrice)
	}

	ledger, err := client.Ledger(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var sawSample, sawPurchase bool
	for _, e := range ledger.Entries {
		switch e.Kind {
		case "sample":
			sawSample = true
		case "purchase":
			sawPurchase = e.PlanID == plan.ID && e.Amount == purchase.TotalPrice
		}
	}
	if !sawSample || !sawPurchase {
		t.Fatalf("ledger misses charges: %+v", ledger)
	}
	if ledger.Total <= 0 {
		t.Fatal("ledger total should be positive")
	}
}

func TestDancedTopK(t *testing.T) {
	client, _ := serviceFixture(t, 2)
	ctx := context.Background()

	options, err := client.AcquireTopK(ctx, dance.AcquireRequest{
		SourceAttrs: []string{"income"},
		TargetAttrs: []string{"riskband"},
		Budget:      1e9,
		Iterations:  30,
		Seed:        3,
	}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(options) == 0 {
		t.Fatal("no options")
	}
	for i, o := range options {
		if o.Plan.ID == "" || len(o.Plan.Queries) == 0 {
			t.Fatalf("option %d incomplete: %+v", i, o)
		}
		if i > 0 && o.Score > options[i-1].Score+1e-12 {
			t.Fatal("options not sorted by score")
		}
	}
	// Every ranked plan is individually executable by ID.
	if _, err := client.Execute(ctx, options[0].Plan.ID); err != nil {
		t.Fatal(err)
	}
}

func TestDancedErrors(t *testing.T) {
	client, _ := serviceFixture(t, 3)
	ctx := context.Background()

	if _, err := client.Execute(ctx, "pl_does_not_exist"); err == nil ||
		!strings.Contains(err.Error(), "no plan") {
		t.Fatalf("unknown plan err = %v", err)
	}
	if _, err := client.Plan(ctx, "pl_does_not_exist"); err == nil {
		t.Fatal("unknown plan fetch should error")
	}
	// Infeasible request: budget no plan can meet. The 422 response maps
	// back onto the ErrInfeasible sentinel client-side.
	_, err := client.Acquire(ctx, dance.AcquireRequest{
		SourceAttrs: []string{"income"},
		TargetAttrs: []string{"riskband"},
		Budget:      1e-9,
		Iterations:  10,
		Seed:        1,
	})
	if err == nil || !strings.Contains(err.Error(), "no feasible") {
		t.Fatalf("infeasible err = %v", err)
	}
	if !errors.Is(err, dance.ErrInfeasible) {
		t.Fatalf("infeasible err %v must wrap dance.ErrInfeasible", err)
	}
	// Attribute nobody sells.
	if _, err := client.Acquire(ctx, dance.AcquireRequest{
		TargetAttrs: []string{"income", "does_not_exist"},
		Iterations:  10,
	}); err == nil {
		t.Fatal("unknown attribute should error")
	}
}

// swappableServiceFixture builds a danced service whose marketplace has a
// two-attribute overlap, so the MCMC walk has variants to chew on and a
// huge iteration budget keeps the search running until the deadline fires.
func swappableServiceFixture(t *testing.T) *dance.AcquireClient {
	t.Helper()
	src := dance.NewTable("a", dance.NewSchema(
		dance.Cat("k", dance.KindInt),
		dance.Num("x", dance.KindFloat),
	))
	b := dance.NewTable("b", dance.NewSchema(
		dance.Cat("k", dance.KindInt),
		dance.Cat("j1", dance.KindInt),
		dance.Cat("j2", dance.KindInt),
	))
	c := dance.NewTable("c", dance.NewSchema(
		dance.Cat("j1", dance.KindInt),
		dance.Cat("j2", dance.KindInt),
		dance.Cat("y", dance.KindString),
	))
	for k := int64(0); k < 30; k++ {
		src.AppendValues(dance.IntValue(k), dance.FloatValue(float64(k)))
		b.AppendValues(dance.IntValue(k), dance.IntValue(k%6), dance.IntValue(k%5))
	}
	for j1 := int64(0); j1 < 6; j1++ {
		for j2 := int64(0); j2 < 5; j2++ {
			c.AppendValues(dance.IntValue(j1), dance.IntValue(j2),
				dance.StringValue(string(rune('a'+(j1+j2)%4))))
		}
	}
	market := dance.NewMarketplace(nil)
	market.Register(b, nil)
	market.Register(c, nil)
	marketSrv := httptest.NewServer(dance.Handler(market))
	t.Cleanup(marketSrv.Close)

	mw := dance.New(dance.NewMarketClient(marketSrv.URL), dance.Config{SampleRate: 1, SampleSeed: 3})
	mw.AddSource(src, nil)
	danced := httptest.NewServer(dance.AcquireHandler(mw))
	t.Cleanup(danced.Close)
	return dance.NewAcquireClient(danced.URL)
}

// Acceptance: an acquisition that forces a sample-rate escalation bills
// only the delta — GET /v1/ledger shows one full-sample round followed by
// delta-only rounds, agreeing with the marketplace's own books.
func TestDancedLedgerShowsDeltaOnlyEscalation(t *testing.T) {
	market, own := marketFixture(9)
	marketSrv := httptest.NewServer(dance.Handler(market))
	t.Cleanup(marketSrv.Close)

	// Start almost unsampled: the joined sample is empty, quality 0, so a
	// β-constrained request is infeasible until the escalation (growth 50
	// → rate 1) buys the rest — as a delta.
	mw := dance.New(dance.NewMarketClient(marketSrv.URL), dance.Config{
		SampleRate: 0.02, SampleSeed: 4, RateGrowth: 50, MaxSampleRounds: 3,
	})
	mw.AddSource(own, nil)
	danced := httptest.NewServer(dance.AcquireHandler(mw))
	t.Cleanup(danced.Close)
	client := dance.NewAcquireClient(danced.URL)
	ctx := context.Background()

	plan, err := client.Acquire(ctx, dance.AcquireRequest{
		SourceAttrs: []string{"income"},
		TargetAttrs: []string{"riskband"},
		Beta:        0.2,
		Budget:      1e9,
		Iterations:  30,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Est.Quality < 0.2 {
		t.Fatalf("plan quality %v below β — escalation did not help", plan.Est.Quality)
	}

	ledger, err := client.Ledger(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var samples, deltas []dance.ServiceLedgerEntry
	for _, e := range ledger.Entries {
		switch e.Kind {
		case "sample":
			samples = append(samples, e)
		case "sample_delta":
			deltas = append(deltas, e)
		}
	}
	if len(samples) != 1 {
		t.Fatalf("want exactly one full-sample round, got %d (%+v)", len(samples), ledger.Entries)
	}
	if len(deltas) == 0 {
		t.Fatalf("no sample_delta entries — escalation re-bought full samples: %+v", ledger.Entries)
	}
	// Every post-initial round is delta-only, and the rates bracket the
	// escalation.
	for _, e := range deltas {
		if e.FromRate < samples[0].ToRate || e.ToRate != 1 {
			t.Fatalf("delta round rates (%v → %v) inconsistent with escalation", e.FromRate, e.ToRate)
		}
	}
	// The service's books agree with the marketplace's.
	if got, want := sumEntries(samples), market.Ledger().TotalByKind("sample"); got != want {
		t.Fatalf("service sample spend %v != marketplace %v", got, want)
	}
	if got, want := sumEntries(deltas), market.Ledger().TotalByKind("sample_delta"); got != want {
		t.Fatalf("service delta spend %v != marketplace %v", got, want)
	}
	// Total sample spend ≈ one full-rate round — strictly cheaper than the
	// two-plus full rounds the seed-era rebuild would have bought.
	total := sumEntries(samples) + sumEntries(deltas)
	if total >= 2*market.Ledger().TotalByKind("sample_delta") {
		// delta bought (0.02, 1] ≈ a full round; two full rounds would be
		// roughly double the delta spend.
		t.Fatalf("escalation spend %v not meaningfully cheaper than full rounds", total)
	}
}

func sumEntries(entries []dance.ServiceLedgerEntry) float64 {
	t := 0.0
	for _, e := range entries {
		t += e.Amount
	}
	return t
}

// Acceptance: a client-side deadline cancels a long search with
// context.DeadlineExceeded instead of hanging until the search drains.
func TestDancedClientDeadlineCancelsLongSearch(t *testing.T) {
	client := swappableServiceFixture(t)

	// Warm the offline phase so the deadline hits the search itself.
	if _, err := client.Acquire(context.Background(), dance.AcquireRequest{
		SourceAttrs: []string{"x"},
		TargetAttrs: []string{"y"},
		Iterations:  10,
		Seed:        5,
	}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.Acquire(ctx, dance.AcquireRequest{
		SourceAttrs: []string{"x"},
		TargetAttrs: []string{"y"},
		Iterations:  1 << 30, // far beyond what can run before the deadline
		Seed:        6,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("client deadline took %v to cancel the acquisition", elapsed)
	}
}

// The server-enforced timeout_ms deadline maps onto the search context too:
// the service answers 504 with the context error instead of hanging.
func TestDancedServerTimeoutMS(t *testing.T) {
	client := swappableServiceFixture(t)
	_, err := client.Acquire(context.Background(), dance.AcquireRequest{
		SourceAttrs: []string{"x"},
		TargetAttrs: []string{"y"},
		Iterations:  1 << 30,
		Seed:        7,
		TimeoutMS:   100,
	})
	if err == nil || !strings.Contains(err.Error(), "context deadline exceeded") {
		t.Fatalf("err = %v, want a deadline error from the service", err)
	}
}

// The policy redesign on the wire: GET /v1/policies lists the registry with
// param schemas, a request naming a policy gets its plan stamped with it,
// and every ledger entry the run incurs is attributed to that policy.
func TestDancedPoliciesAndLedgerAttribution(t *testing.T) {
	client, _ := serviceFixture(t, 6)
	ctx := context.Background()

	pols, err := client.Policies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(pols.Policies) < 3 {
		t.Fatalf("GET /v1/policies listed %d policies, want ≥ 3: %+v", len(pols.Policies), pols)
	}
	byName := map[string]dance.PolicyInfo{}
	for _, p := range pols.Policies {
		if p.Name == "" {
			t.Fatalf("unnamed policy in %+v", pols)
		}
		byName[p.Name] = p
	}
	if !byName["dance"].Default {
		t.Fatalf("dance not marked the default policy: %+v", pols)
	}
	tbyb, ok := byName["try-before-you-buy"]
	if !ok || len(tbyb.Params) == 0 {
		t.Fatalf("try-before-you-buy missing or paramless: %+v", tbyb)
	}

	plan, err := client.Acquire(ctx, dance.AcquireRequest{
		SourceAttrs:  []string{"income"},
		TargetAttrs:  []string{"riskband"},
		Budget:       1e9,
		Iterations:   40,
		Seed:         2,
		Policy:       "try-before-you-buy",
		PolicyParams: map[string]float64{"pilot_rate": 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Policy != "try-before-you-buy" {
		t.Fatalf("plan policy = %q, want try-before-you-buy", plan.Policy)
	}
	if _, err := client.Execute(ctx, plan.ID); err != nil {
		t.Fatal(err)
	}

	ledger, err := client.Ledger(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var sampleAttr, purchaseAttr bool
	for _, e := range ledger.Entries {
		switch e.Kind {
		case "sample", "sample_delta":
			if e.Policy == "try-before-you-buy" {
				sampleAttr = true
			}
		case "purchase":
			if e.PlanID == plan.ID && e.Policy == "try-before-you-buy" {
				purchaseAttr = true
			}
		}
	}
	if !sampleAttr || !purchaseAttr {
		t.Fatalf("ledger entries not attributed to the policy (sample=%v purchase=%v): %+v",
			sampleAttr, purchaseAttr, ledger.Entries)
	}
}

// Omitting the policy field keeps the pre-redesign wire behavior: the
// default dance policy plans the request, and the plan echoes it.
func TestDancedDefaultPolicyOmitted(t *testing.T) {
	client, _ := serviceFixture(t, 7)
	plan, err := client.Acquire(context.Background(), dance.AcquireRequest{
		SourceAttrs: []string{"income"},
		TargetAttrs: []string{"riskband"},
		Budget:      1e9,
		Iterations:  30,
		Seed:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Policy != "dance" {
		t.Fatalf("omitted policy resolved to %q, want dance", plan.Policy)
	}
}

// TestDancedOversizedBody413: request bodies past the 1 MiB bound answer
// 413 with the service's JSON error payload, before any search runs.
func TestDancedOversizedBody413(t *testing.T) {
	market, own := marketFixture(3)
	mw := dance.New(market, dance.Config{SampleRate: 0.9, SampleSeed: 4})
	mw.AddSource(own, nil)
	danced := httptest.NewServer(dance.AcquireHandler(mw))
	t.Cleanup(danced.Close)

	pad := strings.Repeat(" ", 1<<20)
	for _, path := range []string{"/v1/acquire", "/v1/topk", "/v1/execute"} {
		resp, err := http.Post(danced.URL+path, "application/json", strings.NewReader(pad+`{}`))
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Error string }
		decErr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || decErr != nil || e.Error == "" {
			t.Fatalf("%s: status %d, error %q (%v); want 413 with a payload", path, resp.StatusCode, e.Error, decErr)
		}
	}
	if got := market.Ledger().Total(); got != 0 {
		t.Fatalf("oversized requests spent %v", got)
	}
}
