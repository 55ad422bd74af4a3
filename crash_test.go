package dance_test

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	dance "github.com/dance-db/dance"
	"github.com/dance-db/dance/internal/persist"
)

// persistedService wires the durable topology: an httptest marketplace, a
// middleware and service sharing one persist journal rooted at dir. The
// caller owns the marketplace server (it survives danced "crashes").
func persistedService(t *testing.T, marketURL, dir string, own *dance.Table) (*dance.AcquireClient, *dance.Service) {
	t.Helper()
	store, err := dance.OpenPersist(dir, dance.PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mw := dance.New(dance.NewMarketClient(marketURL), dance.Config{
		SampleRate: 0.9, SampleSeed: 4, Persist: store,
	})
	mw.AddSource(own, nil)
	svc, err := dance.NewService(mw, dance.ServiceOptions{Persist: store})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return dance.NewAcquireClient(srv.URL), svc
}

// padToCheckpoint fills dir's journal with ledger entries up to one record
// short of a checkpoint, so that the next append publishes one. The
// interval is persist's own unexported constant; a scratch store finds it
// by appending until its first checkpoint appears.
func padToCheckpoint(t *testing.T, dir string) {
	t.Helper()
	pad := persist.LedgerRecord{Kind: "sample", Amount: 0.25}
	appendPad := func(dir string, until func(n int) bool) int {
		s, err := persist.Open(dir, persist.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for ; !until(n); n++ {
			if err := s.AppendLedger(pad); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	probe := t.TempDir()
	every := appendPad(probe, func(int) bool {
		_, err := os.Stat(filepath.Join(probe, "checkpoint.bin"))
		return err == nil
	})
	appendPad(dir, func(n int) bool { return n == every-1 })
}

// Acceptance (tentpole): kill -9 and restart. A danced process acquires and
// executes a plan, then dies without any shutdown hook — no Close, no flush
// beyond the journal's own per-append durability. Its journal was one
// record short of a checkpoint when it started, so it publishes one and
// dies with a journal tail after it. A fresh process pointed at the same
// directory resumes with the identical ledger, can fetch and execute the
// old plan ID, and its offline refresh re-buys nothing from the
// marketplace.
func TestDancedCrashRestartRecovers(t *testing.T) {
	market, own := marketFixture(1)
	marketSrv := httptest.NewServer(dance.Handler(market))
	t.Cleanup(marketSrv.Close)
	dir := t.TempDir()
	ctx := context.Background()
	padToCheckpoint(t, dir)
	req := dance.AcquireRequest{
		SourceAttrs: []string{"income"},
		TargetAttrs: []string{"riskband"},
		Budget:      1e9,
		Iterations:  40,
		Seed:        2,
	}

	// Process one: acquire, execute, read the books — then "crash". The
	// store is deliberately never Closed; abandoning it models SIGKILL.
	client1, _ := persistedService(t, marketSrv.URL, dir, own)
	plan1, err := client1.Acquire(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client1.Execute(ctx, plan1.ID); err != nil {
		t.Fatal(err)
	}
	ledger1, err := client1.Ledger(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ledger1.Total <= 0 {
		t.Fatal("first process billed nothing; the test proves nothing")
	}
	sampleSpend := market.Ledger().TotalByKind("sample") + market.Ledger().TotalByKind("sample_delta")
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.bin")); err != nil {
		t.Fatalf("the first process published no checkpoint: %v", err)
	}

	// Process two: same directory, fresh everything else.
	client2, _ := persistedService(t, marketSrv.URL, dir, own)

	ledger2, err := client2.Ledger(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ledger2.Total != ledger1.Total {
		t.Fatalf("restart lost the books: ledger %v, want %v", ledger2.Total, ledger1.Total)
	}
	if len(ledger2.Entries) != len(ledger1.Entries) {
		t.Fatalf("restart has %d ledger entries, want %d", len(ledger2.Entries), len(ledger1.Entries))
	}

	// The crashed process's plan ID still resolves and still executes.
	fetched, err := client2.Plan(ctx, plan1.ID)
	if err != nil {
		t.Fatalf("restart lost plan %s: %v", plan1.ID, err)
	}
	if len(fetched.Queries) != len(plan1.Queries) || fetched.Est != plan1.Est {
		t.Fatalf("restored plan %+v != original %+v", fetched, plan1)
	}
	purchase, err := client2.Execute(ctx, plan1.ID)
	if err != nil {
		t.Fatalf("restored plan does not execute: %v", err)
	}
	if purchase.JoinedRows == 0 || purchase.Realized.Correlation <= 0 {
		t.Fatalf("restored execution degenerate: %+v", purchase)
	}

	// A fresh acquisition of the same request reuses the restored samples:
	// identical estimates, zero new sample spend at the marketplace.
	plan2, err := client2.Acquire(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan2.Est.Correlation-plan1.Est.Correlation) > 1e-12 ||
		math.Abs(plan2.Est.Price-plan1.Est.Price) > 1e-12 {
		t.Fatalf("restored samples produced a different plan: %+v vs %+v", plan2.Est, plan1.Est)
	}
	if got := market.Ledger().TotalByKind("sample") + market.Ledger().TotalByKind("sample_delta"); got != sampleSpend {
		t.Fatalf("restart re-bought samples: marketplace sample spend %v, want %v", got, sampleSpend)
	}
}

// loadCounter counts Load calls on the store it wraps.
type loadCounter struct {
	persist.Store
	loads *atomic.Int64
}

func (c loadCounter) Load() (*persist.State, error) {
	c.loads.Add(1)
	return c.Store.Load()
}

// A service and a middleware that share one store replay its journal once
// per process: the service hands the State it loaded to the middleware.
func TestNewServiceLoadsJournalOnce(t *testing.T) {
	market, own := marketFixture(1)
	marketSrv := httptest.NewServer(dance.Handler(market))
	t.Cleanup(marketSrv.Close)
	dir := t.TempDir()
	ctx := context.Background()
	req := dance.AcquireRequest{SourceAttrs: []string{"income"}, TargetAttrs: []string{"riskband"}, Budget: 1e9, Iterations: 10, Seed: 2}
	client1, _ := persistedService(t, marketSrv.URL, dir, own)
	if _, err := client1.Acquire(ctx, req); err != nil {
		t.Fatal(err)
	}
	sampleSpend := market.Ledger().TotalByKind("sample") + market.Ledger().TotalByKind("sample_delta")

	inner, err := dance.OpenPersist(dir, dance.PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	store := loadCounter{Store: inner, loads: new(atomic.Int64)}
	mw := dance.New(dance.NewMarketClient(marketSrv.URL), dance.Config{SampleRate: 0.9, SampleSeed: 4, Persist: store})
	mw.AddSource(own, nil)
	svc, err := dance.NewService(mw, dance.ServiceOptions{Persist: store})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := mw.Offline(ctx); err != nil {
		t.Fatal(err)
	}
	if n := store.loads.Load(); n != 1 {
		t.Fatalf("the journal was loaded %d times, want once", n)
	}
	if mw.SampleCost() != 0 {
		t.Fatalf("the restored middleware re-bought samples for %v", mw.SampleCost())
	}
	if got := market.Ledger().TotalByKind("sample") + market.Ledger().TotalByKind("sample_delta"); got != sampleSpend {
		t.Fatalf("restart re-bought samples: marketplace sample spend %v, want %v", got, sampleSpend)
	}
}

// slowBy delays every request through next — here, to hold the offline
// phase (marketplace round trips) open long enough for concurrency tests to
// observe an in-flight search deterministically.
func slowBy(d time.Duration, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(d)
		next.ServeHTTP(w, r)
	})
}

// coalescingFixture serves a middleware whose marketplace answers slowly,
// so the first acquisition holds its search slot for a while.
func coalescingFixture(t *testing.T, opts dance.ServiceOptions) (*dance.AcquireClient, *dance.Service) {
	t.Helper()
	market, own := marketFixture(1)
	marketSrv := httptest.NewServer(slowBy(150*time.Millisecond, dance.Handler(market)))
	t.Cleanup(marketSrv.Close)
	mw := dance.New(dance.NewMarketClient(marketSrv.URL), dance.Config{SampleRate: 0.9, SampleSeed: 4})
	mw.AddSource(own, nil)
	svc, err := dance.NewService(mw, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return dance.NewAcquireClient(srv.URL), svc
}

// waitStats polls until cond holds or the deadline passes.
func waitStats(t *testing.T, svc *dance.Service, cond func(dance.StatsInfo) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond(svc.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("stats never reached the expected state: %+v", svc.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Acceptance (tentpole): N concurrent identical acquires run exactly one
// search and everyone receives the same stored plan.
func TestDancedCoalescesIdenticalAcquires(t *testing.T) {
	client, svc := coalescingFixture(t, dance.ServiceOptions{})
	ctx := context.Background()
	req := dance.AcquireRequest{
		SourceAttrs: []string{"income"},
		TargetAttrs: []string{"riskband"},
		Budget:      1e9,
		Iterations:  40,
		Seed:        2,
	}

	const n = 8
	ids := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	run := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plan, err := client.Acquire(ctx, req)
			if err == nil {
				ids[i] = plan.ID
			}
			errs[i] = err
		}()
	}
	run(0)
	// The leader registers its flight before searching; once the stats show
	// it, every follower below is guaranteed to coalesce (the slow
	// marketplace keeps the flight open far longer than the fan-out takes).
	waitStats(t, svc, func(st dance.StatsInfo) bool { return st.Searches == 1 })
	for i := 1; i < n; i++ {
		run(i)
	}
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("acquire %d: %v", i, errs[i])
		}
		if ids[i] != ids[0] {
			t.Fatalf("request %d got plan %s, leader got %s — not coalesced", i, ids[i], ids[0])
		}
	}
	st := svc.Stats()
	if st.Searches != 1 || st.Coalesced != n-1 || st.Shed != 0 {
		t.Fatalf("stats = %+v, want exactly 1 search, %d coalesced, 0 shed", st, n-1)
	}
	if st.InFlight != 0 {
		t.Fatalf("search slot leaked: %+v", st)
	}
}

// Acceptance (tentpole): with every search slot busy, a non-coalescable
// request is shed as 429 + Retry-After, surfaces client-side as
// ErrOverloaded with the server's backoff hint, and succeeds on retry once
// the slot frees.
func TestDancedShedsOverloadWith429(t *testing.T) {
	client, svc := coalescingFixture(t, dance.ServiceOptions{
		MaxInFlightSearches: 1,
		RetryAfter:          3 * time.Second,
	})
	ctx := context.Background()
	busy := dance.AcquireRequest{
		SourceAttrs: []string{"income"},
		TargetAttrs: []string{"riskband"},
		Budget:      1e9,
		Iterations:  40,
		Seed:        2,
	}
	other := busy
	other.Seed = 3 // different fingerprint: cannot coalesce

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := client.Acquire(ctx, busy); err != nil {
			t.Errorf("leader: %v", err)
		}
	}()
	waitStats(t, svc, func(st dance.StatsInfo) bool { return st.InFlight == 1 })

	_, err := client.Acquire(ctx, other)
	if !errors.Is(err, dance.ErrOverloaded) {
		t.Fatalf("err = %v, want dance.ErrOverloaded", err)
	}
	if d, ok := dance.RetryAfter(err); !ok || d != 3*time.Second {
		t.Fatalf("RetryAfter = %v, %v; want the server's 3s hint", d, ok)
	}
	if st := svc.Stats(); st.Shed != 1 {
		t.Fatalf("stats = %+v, want exactly one shed request", st)
	}

	// Topk is admission-gated by the same semaphore.
	if _, err := client.AcquireTopK(ctx, other, 2, nil); !errors.Is(err, dance.ErrOverloaded) {
		t.Fatalf("topk err = %v, want dance.ErrOverloaded", err)
	}

	wg.Wait() // slot freed
	if _, err := client.Acquire(ctx, other); err != nil {
		t.Fatalf("retry after backoff failed: %v", err)
	}
}
