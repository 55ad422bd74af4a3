package marketplace

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dance-db/dance/internal/pricing"
)

// testRetryPolicy is fast enough for tests but otherwise shaped like the
// default: several attempts, exponential backoff, tight per-try timeout.
func testRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		MaxDelay:    10 * time.Millisecond,
		PerTry:      250 * time.Millisecond,
		Seed:        1,
	}
}

// flaky fails the first n requests per path in the given mode, then serves
// normally.
type flaky struct {
	inner http.Handler
	mode  string // "stall", "500", "truncate"
	n     int

	mu    sync.Mutex
	seen  map[string]int
	total atomic.Int64
}

func newFlaky(inner http.Handler, mode string, n int) *flaky {
	return &flaky{inner: inner, mode: mode, n: n, seen: make(map[string]int)}
}

func (f *flaky) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.total.Add(1)
	f.mu.Lock()
	f.seen[r.URL.Path]++
	fail := f.seen[r.URL.Path] <= f.n
	f.mu.Unlock()
	if !fail {
		f.inner.ServeHTTP(w, r)
		return
	}
	switch f.mode {
	case "stall":
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
		panic(http.ErrAbortHandler)
	case "500":
		http.Error(w, "flaky: injected failure", http.StatusInternalServerError)
	case "truncate":
		rec := httptest.NewRecorder()
		f.inner.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		w.WriteHeader(rec.Code)
		w.Write(body[:len(body)/2])
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		panic(http.ErrAbortHandler)
	}
}

func retryClient(t *testing.T, h http.Handler) (*Client, *httptest.Server) {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL)
	c.Retry = testRetryPolicy()
	return c, srv
}

func TestRetryTimeoutThenSuccess(t *testing.T) {
	m := demoMarket()
	f := newFlaky(Handler(m), "stall", 1)
	c, _ := retryClient(t, f)
	cat, err := c.Catalog(bg)
	if err != nil {
		t.Fatalf("catalog after stall: %v", err)
	}
	if len(cat) != 2 {
		t.Fatalf("catalog = %+v", cat)
	}
	if got := f.total.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2 (stall + retry)", got)
	}
}

func TestRetry500ThenSuccess(t *testing.T) {
	m := demoMarket()
	f := newFlaky(Handler(m), "500", 2)
	c, _ := retryClient(t, f)
	tab, price, err := c.Sample(bg, "alpha", []string{"k"}, 0.5, 7)
	if err != nil {
		t.Fatalf("sample after two 500s: %v", err)
	}
	if tab.NumRows() == 0 || price <= 0 {
		t.Fatalf("sample = %d rows, price %v", tab.NumRows(), price)
	}
	if got := f.total.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3", got)
	}
}

func TestRetryMidBodyReset(t *testing.T) {
	m := demoMarket()
	f := newFlaky(Handler(m), "truncate", 1)
	c, _ := retryClient(t, f)
	tab, _, err := c.Sample(bg, "alpha", []string{"k"}, 0.5, 7)
	if err != nil {
		t.Fatalf("sample after truncated body: %v", err)
	}
	want, _, err := m.Sample(bg, "alpha", []string{"k"}, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, "retried sample", tab, want)
}

func TestRetryBudgetExhaustionWrapsLastError(t *testing.T) {
	f := newFlaky(Handler(demoMarket()), "500", 100)
	c, _ := retryClient(t, f)
	_, err := c.Catalog(bg)
	if err == nil {
		t.Fatal("permanently failing server must error")
	}
	if !strings.Contains(err.Error(), "failed after retries") {
		t.Fatalf("exhaustion not reported: %v", err)
	}
	if !strings.Contains(err.Error(), "status 500") {
		t.Fatalf("last underlying error not wrapped: %v", err)
	}
	if got := f.total.Load(); got != int64(testRetryPolicy().MaxAttempts) {
		t.Fatalf("server saw %d requests, want %d", got, testRetryPolicy().MaxAttempts)
	}
}

func TestRetryDoesNotRepeatMarketplaceErrors(t *testing.T) {
	f := newFlaky(Handler(demoMarket()), "500", 0)
	c, _ := retryClient(t, f)
	if _, _, err := c.Sample(bg, "missing", []string{"k"}, 0.5, 7); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("unknown dataset: %v", err)
	}
	if got := f.total.Load(); got != 1 {
		t.Fatalf("a marketplace-reported error was retried: %d requests", got)
	}
}

// TestRetryNeverDoubleBills pins the idempotency contract end to end: the
// server bills the first (truncated) execution, and the retry replays the
// recorded response instead of purchasing again.
func TestRetryNeverDoubleBills(t *testing.T) {
	m := demoMarket()
	f := newFlaky(Handler(m), "truncate", 1)
	c, _ := retryClient(t, f)

	tab, price, err := c.ExecuteProjection(bg, pricing.Query{Instance: "alpha", Attrs: []string{"k", "state"}})
	if err != nil {
		t.Fatalf("query after truncated body: %v", err)
	}
	if tab.NumRows() != 200 {
		t.Fatalf("query rows = %d", tab.NumRows())
	}
	if got := m.Ledger().Total(); got != price {
		t.Fatalf("retry double-billed: ledger %v, one purchase costs %v", got, price)
	}
	if got := f.total.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2", got)
	}

	// A second deliberate purchase of the same projection bills again —
	// idempotency keys are per logical call, not per parameters.
	if _, _, err := c.ExecuteProjection(bg, pricing.Query{Instance: "alpha", Attrs: []string{"k", "state"}}); err != nil {
		t.Fatal(err)
	}
	if got := m.Ledger().Total(); got != 2*price {
		t.Fatalf("repeat purchase did not bill: ledger %v, want %v", got, 2*price)
	}
}

// TestIdempotentSampleBillsOnce drives the server-side cache directly: many
// concurrent requests sharing one key execute (and bill) the sample once.
func TestIdempotentSampleBillsOnce(t *testing.T) {
	m := demoMarket()
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	body := `{"name":"alpha","join_attrs":["k"],"rate":0.5,"seed":7}`
	do := func() int {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/sample", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(IdempotencyHeader, "one-key")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return 0
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code := do(); code != http.StatusOK {
				t.Errorf("status %d", code)
			}
		}()
	}
	wg.Wait()
	if _, _, err := m.Sample(bg, "alpha", []string{"k"}, 0.5, 7); err != nil {
		t.Fatal(err)
	}
	// The direct Sample above billed once more; 8 keyed HTTP requests
	// together must have billed exactly once before it.
	if entries := m.Ledger().Entries(); len(entries) != 2 {
		t.Fatalf("ledger entries = %d, want 2 (one keyed batch + one direct)", len(entries))
	}
}

// TestConcurrentDeltasBillDeltas: concurrent SampleDelta calls all buy from
// /sample_delta; no full sample is billed.
func TestConcurrentDeltasBillDeltas(t *testing.T) {
	backend := demoMarket()
	c, _ := retryClient(t, Handler(backend))
	const n = 6
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := c.SampleDelta(bg, "alpha", []string{"k"}, 0.2, 0.7, 9); err != nil {
				t.Errorf("SampleDelta: %v", err)
			}
		}()
	}
	wg.Wait()
	if m := backend.Ledger().TotalByKind("sample"); m != 0 {
		t.Fatalf("full samples billed on a delta-capable server: %v", m)
	}
	if m := backend.Ledger().TotalByKind("sample_delta"); m <= 0 {
		t.Fatal("no deltas billed")
	}
}
