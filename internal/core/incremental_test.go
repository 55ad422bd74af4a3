package core

import (
	"context"
	"math"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"github.com/dance-db/dance/internal/marketplace"
	"github.com/dance-db/dance/internal/pricing"
	"github.com/dance-db/dance/internal/relation"
)

// TestEscalationBillsOnlyDeltas is the ledger proof of the acceptance
// criterion: escalating 0.05 → 0.15 → 0.45 → 1 bills, per dataset, exactly
// SampleDiscount(full, to) − SampleDiscount(full, from) per round — and the
// total is strictly less than re-buying a complete sample every round.
func TestEscalationBillsOnlyDeltas(t *testing.T) {
	m, src := buildScenario(50)
	d := New(m, Config{SampleRate: 0.05, SampleSeed: 3, RateGrowth: 3, MaxSampleRounds: 4})
	d.AddSource(src, nil)
	if err := d.Offline(bg); err != nil {
		t.Fatal(err)
	}
	var ladder []float64 // the achieved rates: ≈0.15, ≈0.45, 1
	for i := 0; i < 3; i++ {
		retry, err := d.Escalate(bg)
		if err != nil {
			t.Fatal(err)
		}
		if !retry {
			t.Fatalf("escalation %d reported nothing to do", i)
		}
		ladder = append(ladder, d.SampleRate())
	}
	for i, approx := range []float64{0.15, 0.45, 1} {
		if math.Abs(ladder[i]-approx) > 1e-9 {
			t.Fatalf("escalation ladder = %v, want ≈ [0.15 0.45 1]", ladder)
		}
	}
	if retry, err := d.Escalate(bg); err != nil || retry {
		t.Fatalf("escalating past rate 1 should be a no-op: %v %v", retry, err)
	}

	// Per-dataset full prices, quoted for free.
	fulls := map[string]float64{}
	catalog, err := m.Catalog(bg)
	if err != nil {
		t.Fatal(err)
	}
	sumFull := 0.0
	for _, info := range catalog {
		names := make([]string, len(info.Attrs))
		for i, c := range info.Attrs {
			names[i] = c.Name
		}
		p, err := m.QuoteProjection(bg, info.Name, names)
		if err != nil {
			t.Fatal(err)
		}
		fulls[info.Name] = p
		sumFull += p
	}

	// Exact charges: the first round bills SampleDiscount(full, 0.05), each
	// escalation the discount difference. Compare entry by entry.
	wantSamples := map[string]float64{}
	wantDeltas := map[string][]float64{}
	for name, full := range fulls {
		wantSamples[name] = pricing.SampleDiscount(full, 0.05)
		prev := 0.05
		for _, to := range ladder {
			wantDeltas[name] = append(wantDeltas[name],
				pricing.SampleDiscount(full, to)-pricing.SampleDiscount(full, prev))
			prev = to
		}
	}
	gotDeltas := map[string][]float64{}
	for _, e := range m.Ledger().Entries() {
		switch e.Kind {
		case "sample":
			if e.Amount != wantSamples[e.Dataset] {
				t.Fatalf("initial sample of %s billed %v, want %v", e.Dataset, e.Amount, wantSamples[e.Dataset])
			}
			delete(wantSamples, e.Dataset)
		case "sample_delta":
			gotDeltas[e.Dataset] = append(gotDeltas[e.Dataset], e.Amount)
		}
	}
	if len(wantSamples) != 0 {
		t.Fatalf("missing initial sample charges for %v", wantSamples)
	}
	for name, want := range wantDeltas {
		got := gotDeltas[name]
		if len(got) != len(want) {
			t.Fatalf("%s: %d delta charges, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s delta %d billed %v, want exactly %v", name, i, got[i], want[i])
			}
		}
	}

	// Strictly cheaper than four full rounds (0.05 + 0.15 + 0.45 + 1 full
	// prices), and ≈ one full-rate sample in total.
	total := d.SampleCost()
	fourRounds := sumFull * (0.05 + 0.15 + 0.45 + 1)
	if total >= fourRounds {
		t.Fatalf("incremental escalation billed %v, not less than full rounds %v", total, fourRounds)
	}
	if math.Abs(total-sumFull) > 1e-9*sumFull {
		t.Fatalf("escalation to rate 1 should cost ≈ one full sample (%v), billed %v", sumFull, total)
	}
	if lt := sampleChargesInCatalogOrder(t, m); lt != total {
		t.Fatalf("middleware cost %v disagrees with marketplace ledger %v", total, lt)
	}

	// The per-round spend log matches: one full round then delta-only rounds.
	rounds := d.SampleRounds()
	if len(rounds) != 4 {
		t.Fatalf("SampleRounds = %d, want 4", len(rounds))
	}
	if rounds[0].DeltaCost != 0 || rounds[0].FullCost <= 0 {
		t.Fatalf("round 0 should be full-cost only: %+v", rounds[0])
	}
	for i, r := range rounds[1:] {
		if r.FullCost != 0 || r.DeltaCost <= 0 {
			t.Fatalf("round %d should be delta-only: %+v", i+1, r)
		}
	}
}

// TestEscalatedStateMatchesFreshOffline pins end-to-end state equivalence:
// after escalating 0.05 → … → 1 the merged offline samples (row and
// columnar views) are identical to those of a middleware that sampled at
// rate 1 from scratch.
func TestEscalatedStateMatchesFreshOffline(t *testing.T) {
	m, src := buildScenario(51)
	esc := New(m, Config{SampleRate: 0.05, SampleSeed: 7, RateGrowth: 3})
	esc.AddSource(src, nil)
	if err := esc.Offline(bg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := esc.Escalate(bg); err != nil {
			t.Fatal(err)
		}
	}
	fresh := New(m, Config{SampleRate: 1, SampleSeed: 7})
	fresh.AddSource(src, nil)
	if err := fresh.Offline(bg); err != nil {
		t.Fatal(err)
	}

	ge, gf := esc.Graph(), fresh.Graph()
	if len(ge.Instances) != len(gf.Instances) {
		t.Fatalf("instance counts differ: %d vs %d", len(ge.Instances), len(gf.Instances))
	}
	for i, ie := range ge.Instances {
		fi := gf.Instances[i]
		if ie.Name != fi.Name {
			t.Fatalf("instance order differs at %d: %s vs %s", i, ie.Name, fi.Name)
		}
		if ie.Columnar.NumRows() != fi.Columnar.NumRows() {
			t.Fatalf("%s: escalated sample %d rows, fresh %d", ie.Name, ie.Columnar.NumRows(), fi.Columnar.NumRows())
		}
		et, ft := ie.Columnar.ToTable(), fi.Columnar.ToTable()
		for r := range ft.Rows {
			for c := range ft.Rows[r] {
				if !ft.Rows[r][c].EqualValue(et.Rows[r][c]) {
					t.Fatalf("%s: row %d differs after escalation", ie.Name, r)
				}
			}
		}
		for j := 0; j < ie.Columnar.Schema().Len(); j++ {
			ce, cf := ie.Columnar.Codes(j), fi.Columnar.Codes(j)
			if len(ce) != len(cf) {
				t.Fatalf("%s col %d: code lengths differ", ie.Name, j)
			}
			for r := range ce {
				if ce[r] != cf[r] {
					t.Fatalf("%s col %d row %d: merged code %d != fresh %d", ie.Name, j, r, ce[r], cf[r])
				}
			}
		}
	}

	// And both middlewares find the same plan.
	pe, err := esc.Acquire(bg, acquisitionRequest())
	if err != nil {
		t.Fatal(err)
	}
	pf, err := fresh.Acquire(bg, acquisitionRequest())
	if err != nil {
		t.Fatal(err)
	}
	if len(pe.Queries) != len(pf.Queries) {
		t.Fatalf("plans differ: %v vs %v", pe.Queries, pf.Queries)
	}
	for i := range pe.Queries {
		if pe.Queries[i].String() != pf.Queries[i].String() {
			t.Fatalf("plans differ at query %d: %s vs %s", i, pe.Queries[i], pf.Queries[i])
		}
	}
	if pe.Est != pf.Est {
		t.Fatalf("estimated metrics differ: %+v vs %+v", pe.Est, pf.Est)
	}
}

// samplerCounter counts the sample purchases its marketplace is asked for.
type samplerCounter struct {
	marketplace.Market
	calls atomic.Int64
}

func (c *samplerCounter) Sample(ctx context.Context, name string, joinAttrs []string, rate float64, seed uint64) (*relation.Table, float64, error) {
	c.calls.Add(1)
	return c.Market.Sample(ctx, name, joinAttrs, rate, seed)
}

func (c *samplerCounter) SampleDelta(ctx context.Context, name string, joinAttrs []string, fromRate, toRate float64, seed uint64) (*relation.Table, float64, error) {
	c.calls.Add(1)
	return c.Market.SampleDelta(ctx, name, joinAttrs, fromRate, toRate, seed)
}

// TestSameRateRefreshIsFree checks that an Offline refresh at the held
// rate (every delta empty) buys nothing: the marketplace sampler is not
// called, no money moves, and every dataset keeps the version that
// persistedMark keys re-journaling on.
func TestSameRateRefreshIsFree(t *testing.T) {
	m, src := buildScenario(52)
	market := &samplerCounter{Market: m}
	d := New(market, Config{SampleRate: 0.8, SampleSeed: 5})
	d.AddSource(src, nil)
	if _, err := d.Acquire(bg, acquisitionRequest()); err != nil {
		t.Fatal(err)
	}
	cost := d.SampleCost()
	entries := len(m.Ledger().Entries())
	calls := market.calls.Load()
	if calls == 0 {
		t.Fatal("the first round bought no sample")
	}
	v0 := map[string]uint64{}
	for _, ds := range d.store.Snapshot().Datasets() {
		v0[ds.Name] = ds.Version
	}

	if err := d.Offline(bg); err != nil {
		t.Fatal(err)
	}
	if got := market.calls.Load(); got != calls {
		t.Fatalf("same-rate refresh called the marketplace sampler: %d → %d calls", calls, got)
	}
	if got := d.SampleCost(); got != cost {
		t.Fatalf("same-rate refresh charged money: %v → %v", cost, got)
	}
	if got := len(m.Ledger().Entries()); got != entries {
		t.Fatalf("same-rate refresh charged the ledger: %d → %d entries", entries, got)
	}
	for _, ds := range d.store.Snapshot().Datasets() {
		if ds.Version != v0[ds.Name] {
			t.Fatalf("%s version changed on a no-op refresh: %d → %d", ds.Name, v0[ds.Name], ds.Version)
		}
	}
	if _, err := d.Acquire(bg, acquisitionRequest()); err != nil {
		t.Fatal(err)
	}
}

// TestEscalationOverHTTP drives the middleware against a remote marketplace:
// an escalation round buys one sample delta per listing (no full sample)
// and converges to the offline state of a fresh run at the escalated rate.
func TestEscalationOverHTTP(t *testing.T) {
	backend, src := buildScenario(53)
	srv := httptest.NewServer(marketplace.Handler(backend))
	defer srv.Close()

	d := New(marketplace.NewClient(srv.URL), Config{SampleRate: 0.2, SampleSeed: 6, RateGrowth: 4})
	d.AddSource(src, nil)
	if err := d.Offline(bg); err != nil {
		t.Fatal(err)
	}
	samples := len(backend.Ledger().Entries())
	if _, err := d.Escalate(bg); err != nil {
		t.Fatal(err)
	}
	if got := d.SampleRate(); got != 0.8 {
		t.Fatalf("rate = %v, want 0.8", got)
	}
	escalation := backend.Ledger().Entries()[samples:]
	if len(escalation) != samples {
		t.Fatalf("escalation billed %d entries, want one per listing (%d)", len(escalation), samples)
	}
	for _, e := range escalation {
		if e.Kind != "sample_delta" {
			t.Fatalf("escalation billed a %q for %s, want sample_delta", e.Kind, e.Dataset)
		}
	}
	fresh := New(backend, Config{SampleRate: 0.8, SampleSeed: 6})
	fresh.AddSource(src, nil)
	if err := fresh.Offline(bg); err != nil {
		t.Fatal(err)
	}
	for i, inst := range d.Graph().Instances {
		want := fresh.Graph().Instances[i]
		if inst.Name != want.Name || inst.Columnar.NumRows() != want.Columnar.NumRows() {
			t.Fatalf("escalated state diverged for %s: %d rows vs %d",
				inst.Name, inst.Columnar.NumRows(), want.Columnar.NumRows())
		}
	}
}
