package chaos

import (
	"context"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/dance-db/dance/internal/marketplace"
	"github.com/dance-db/dance/internal/pricing"
	"github.com/dance-db/dance/internal/relation"
)

var bg = context.Background()

func demoMarket(seed int64) *marketplace.InMemory {
	rng := rand.New(rand.NewSource(seed))
	t := relation.NewTable("alpha", relation.NewSchema(
		relation.Cat("k", relation.KindInt),
		relation.Num("v", relation.KindFloat),
	))
	for i := 0; i < 120; i++ {
		t.AppendValues(relation.IntValue(int64(rng.Intn(10))), relation.FloatValue(rng.Float64()))
	}
	m := marketplace.NewInMemory(nil)
	m.Register(t, nil)
	return m
}

func chaoticClient(t *testing.T, m marketplace.Market, cfg Config) (*marketplace.Client, *Injector) {
	t.Helper()
	in := NewInjector(cfg)
	srv := httptest.NewServer(Middleware(marketplace.Handler(m), in))
	t.Cleanup(srv.Close)
	c := marketplace.NewClient(srv.URL)
	c.Retry = marketplace.RetryPolicy{
		MaxAttempts: 6,
		BaseDelay:   time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
		PerTry:      300 * time.Millisecond,
		Seed:        1,
	}
	return c, in
}

// TestInjectorDeterministic: same seed, same arrival order, same faults.
func TestInjectorDeterministic(t *testing.T) {
	draw := func() []string {
		in := NewInjector(Config{Seed: 5, Probs: Probabilities{Err5xx: 0.2, Reset: 0.2, Stall: 0.1, Partial: 0.2, Slow: 0.2}})
		var out []string
		for i := 0; i < 64; i++ {
			out = append(out, in.draw())
		}
		return out
	}
	a, b := draw(), draw()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fault streams diverge:\n%v\n%v", a, b)
	}
	classes := map[string]bool{}
	for _, f := range a {
		classes[f] = true
	}
	for _, want := range []string{"err5xx", "reset", "partial", "slow", "none"} {
		if !classes[want] {
			t.Errorf("64 draws at these weights should include %q: %v", want, classes)
		}
	}
}

// TestRecoveryThroughChaos: under every injectable fault class, the retrying
// client still completes its calls, and billing endpoints bill exactly once
// per logical call despite retried partial deliveries.
func TestRecoveryThroughChaos(t *testing.T) {
	m := demoMarket(3)
	c, in := chaoticClient(t, m, Config{
		Seed:     7,
		Probs:    Probabilities{Err5xx: 0.15, Reset: 0.1, Stall: 0.05, Partial: 0.15, Slow: 0.1},
		StallFor: 2 * time.Second, // past PerTry: a real hang
		SlowFor:  5 * time.Millisecond,
	})

	want, wantPrice, err := m.ExecuteProjection(bg, pricing.Query{Instance: "alpha", Attrs: []string{"k", "v"}})
	if err != nil {
		t.Fatal(err)
	}
	billedBefore := m.Ledger().Total()

	const calls = 25
	for i := 0; i < calls; i++ {
		got, price, err := c.ExecuteProjection(bg, pricing.Query{Instance: "alpha", Attrs: []string{"k", "v"}})
		if err != nil {
			t.Fatalf("call %d failed through chaos: %v (injected: %v)", i, err, in.Counts())
		}
		if got.NumRows() != want.NumRows() || price != wantPrice {
			t.Fatalf("call %d corrupted: %d rows price %v, want %d rows price %v",
				i, got.NumRows(), price, want.NumRows(), wantPrice)
		}
	}
	// Exactly one billing per logical call: retries of partially-delivered
	// responses replayed the idempotency cache instead of re-purchasing.
	if got := m.Ledger().Total() - billedBefore; math.Abs(got-float64(calls)*wantPrice) > 1e-6 {
		t.Fatalf("chaos broke single-billing: billed %v for %d calls of %v each (injected: %v)",
			got, calls, wantPrice, in.Counts())
	}
	counts := in.Counts()
	if counts["err5xx"] == 0 || counts["partial"] == 0 {
		t.Fatalf("chaos too quiet to prove anything: %v", counts)
	}
}

// TestWrapMarketReprices: quotes wobble within the configured amplitude;
// samples and executed queries stay exact.
func TestWrapMarketReprices(t *testing.T) {
	m := demoMarket(4)
	in := NewInjector(Config{Seed: 2, Probs: Probabilities{Reprice: 1}, RepriceAmp: 0.2})
	w := WrapMarket(m, in)

	base, err := m.QuoteProjection(bg, "alpha", []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	repriced, err := w.QuoteProjection(bg, "alpha", []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if repriced == base {
		t.Fatal("reprice probability 1 left the quote unchanged")
	}
	if repriced < 0.8*base-1e-12 || repriced > 1.2*base+1e-12 {
		t.Fatalf("reprice %v outside ±20%% of %v", repriced, base)
	}
	_, price, err := w.ExecuteProjection(bg, pricing.Query{Instance: "alpha", Attrs: []string{"k"}})
	if err != nil {
		t.Fatal(err)
	}
	if price != base {
		t.Fatalf("executed price %v must stay the true %v", price, base)
	}
	if in.Counts()["reprice"] == 0 {
		t.Fatal("reprice not counted")
	}
}

// recordingTransport remembers the Content-Type of every response.
type recordingTransport struct {
	mu     sync.Mutex
	ctypes []string
}

func (rt *recordingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil {
		rt.mu.Lock()
		rt.ctypes = append(rt.ctypes, resp.Header.Get("Content-Type"))
		rt.mu.Unlock()
	}
	return resp, err
}

// TestPartialFaultReplaysCSVResponse: a partial fault cuts a raw CSV sample
// mid-body after the marketplace billed it. The retry carries the same
// Idempotency-Key, so the replay must restore the whole body and every
// header — the price travels in one — billing once and yielding the rows
// and price of an undisturbed purchase.
func TestPartialFaultReplaysCSVResponse(t *testing.T) {
	probs := Probabilities{Partial: 0.5}
	// Pick a fault stream whose first request is cut and whose second (the
	// retry) is delivered.
	var seed uint64
	for ; ; seed++ {
		in := NewInjector(Config{Seed: seed, Probs: probs})
		if in.draw() == "partial" && in.draw() == "none" {
			break
		}
	}
	m := demoMarket(3)
	c, in := chaoticClient(t, m, Config{Seed: seed, Probs: probs})
	rt := &recordingTransport{}
	c.HTTP = &http.Client{Transport: rt}

	got, price, err := c.Sample(bg, "alpha", []string{"k"}, 0.6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n := in.Counts()["partial"]; n != 1 {
		t.Fatalf("%d partial faults injected, want 1", n)
	}
	if len(rt.ctypes) != 2 || rt.ctypes[0] != marketplace.CSVMediaType || rt.ctypes[1] != marketplace.CSVMediaType {
		t.Fatalf("response content types %q, want two CSV responses (cut, then replayed)", rt.ctypes)
	}
	entries := m.Ledger().Entries()
	if len(entries) != 1 || entries[0].Amount != price {
		t.Fatalf("ledger %+v, want one sample billed at the replayed price %v", entries, price)
	}
	want, wantPrice, err := demoMarket(3).Sample(bg, "alpha", []string{"k"}, 0.6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if price != wantPrice || !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("replayed sample: %d rows at %v, want %d rows at %v", got.NumRows(), price, want.NumRows(), wantPrice)
	}
}
