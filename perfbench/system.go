package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"time"

	dance "github.com/dance-db/dance"
	"github.com/dance-db/dance/internal/marketplace"
	"github.com/dance-db/dance/internal/persist"
)

// system is one running danced: the in-memory marketplace (behind marketd
// on loopback when the scenario is remote), the optional journal, the
// service behind its own loopback listener, and the shopper's client.
type system struct {
	sc      *scenario
	market  *marketplace.InMemory
	svc     *dance.Service
	client  *dance.AcquireClient
	journal string // journal file; "" when persist is off
	// closers shut the system down in reverse order of start.
	closers []func() error
}

// serve serves h on a loopback listener. stop closes the server and waits
// until its accept loop has returned.
func serve(h http.Handler) (url string, stop func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return "http://" + ln.Addr().String(), func() error {
		err := srv.Close()
		<-done
		return err
	}, nil
}

// httpClient returns a client with its own connection pool, closed with the
// system, stamping trace headers when tr is enabled.
func (sys *system) httpClient(tr *recorder) *http.Client {
	base := http.DefaultTransport.(*http.Transport).Clone()
	sys.closers = append(sys.closers, func() error { base.CloseIdleConnections(); return nil })
	if tr == nil {
		return &http.Client{Transport: base}
	}
	return &http.Client{Transport: tracingTransport{r: tr, base: base}}
}

// bringUp starts a system from the scenario: marketplace, persist open
// (when journalDir is set), dance.New, the dance.NewService restore and
// Middleware.Offline, then danced on loopback. tr, when non-nil, wraps every
// layer boundary; ctx carries the cold start's op.
func (sc *scenario) bringUp(ctx context.Context, tr *recorder, journalDir string, fsync bool) (_ *system, err error) {
	sys := &system{sc: sc}
	defer func() {
		if err != nil {
			sys.close()
		}
	}()
	model := sc.pricing()
	if tr != nil {
		model = tracedModel{inner: model, r: tr}
	}
	sys.market = marketplace.NewInMemory(model)
	for _, t := range sc.listings {
		sys.market.Register(t, sc.fds[t.Name])
	}
	var market marketplace.Market = sys.market
	if sc.remote {
		h := marketplace.Handler(sys.market)
		if tr != nil {
			h = tr.middleware("marketd", h)
		}
		url, stop, err := serve(h)
		if err != nil {
			return nil, err
		}
		sys.closers = append(sys.closers, stop)
		c := marketplace.NewClient(url)
		c.HTTP = sys.httpClient(tr)
		market = c
	}
	if tr != nil {
		market = tracedMarket{inner: market, r: tr}
	}

	cfg := sc.cfg
	var store persist.Store
	if journalDir != "" {
		_, s := tr.start(ctx, "persist.open")
		fs, err := persist.Open(journalDir, persist.Options{NoSync: !fsync})
		s.end(0)
		if err != nil {
			return nil, err
		}
		store = fs
		if tr != nil {
			store = tracedStore{inner: fs, r: tr}
		}
		sys.journal = filepath.Join(journalDir, "journal.jsonl")
		cfg.Persist = store
	}
	mw := dance.New(market, cfg)
	if sc.owned != nil {
		mw.AddSource(sc.owned, sc.ownedFDs)
	}
	_, s := tr.start(ctx, "offline.restore")
	svc, err := dance.NewService(mw, dance.ServiceOptions{Persist: store})
	s.end(0)
	if err != nil {
		if store != nil {
			store.Close()
		}
		return nil, err
	}
	sys.svc = svc
	sys.closers = append(sys.closers, svc.Close)
	octx, s := tr.start(ctx, "offline.offline")
	err = mw.Offline(octx)
	s.end(0)
	if err != nil {
		return nil, fmt.Errorf("offline phase: %w", err)
	}

	h := svc.Handler()
	if tr != nil {
		h = tr.middleware("service", h)
	}
	url, stop, err := serve(h)
	if err != nil {
		return nil, err
	}
	sys.closers = append(sys.closers, stop)
	sys.client = dance.NewAcquireClient(url)
	sys.client.HTTP = sys.httpClient(tr)
	return sys, nil
}

// close shuts the system down: danced first, then the journal, then
// marketd, then idle client connections.
func (sys *system) close() error {
	var first error
	for i := len(sys.closers) - 1; i >= 0; i-- {
		if err := sys.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	sys.closers = nil
	return first
}

// opResult is what one shopper request observed.
type opResult struct {
	acquire, execute time.Duration
	evals            int
	joinedRows       int
	realized         float64
	// err is a failed call or a failed output check.
	err error
}

// runOp performs one shopper request: POST /v1/acquire, then POST
// /v1/execute of the returned plan, and checks the outputs. op numbers the
// request in the trace.
func (sys *system) runOp(ctx context.Context, tr *recorder, op int64, req dance.AcquireRequest) opResult {
	var res opResult
	ctx, root := tr.start(withTrace(ctx, traceCtx{op: op}), "op")
	defer root.end(0)

	actx, s := tr.start(ctx, "client.acquire")
	t0 := time.Now()
	plan, err := sys.client.Acquire(actx, req)
	res.acquire = time.Since(t0)
	s.end(0)
	if err != nil {
		res.err = fmt.Errorf("acquire: %w", err)
		return res
	}
	if plan.ID == "" || len(plan.Queries) == 0 {
		res.err = errors.New("acquire returned an empty plan")
		return res
	}
	res.evals = plan.Evals

	ectx, s := tr.start(ctx, "client.execute")
	t0 = time.Now()
	p, err := sys.client.Execute(ectx, plan.ID)
	res.execute = time.Since(t0)
	s.end(0)
	if err != nil {
		res.err = fmt.Errorf("execute %s: %w", plan.ID, err)
		return res
	}
	res.joinedRows, res.realized = p.JoinedRows, p.Realized.Correlation
	res.err = sys.sc.checkPurchase(p)
	return res
}

// ledgerTotal reads danced's ledger total over the wire.
func (sys *system) ledgerTotal(ctx context.Context) (float64, error) {
	l, err := sys.client.Ledger(ctx)
	if err != nil {
		return 0, err
	}
	return l.Total, nil
}

// checkInvariants checks the money path and the admission counters:
// danced's ledger, less what the restored journal already held, equals what
// the marketplace billed, and no request was coalesced or shed.
func (sys *system) checkInvariants(ctx context.Context) error {
	total, err := sys.ledgerTotal(ctx)
	if err != nil {
		return err
	}
	billed := sys.market.Ledger().Total()
	if got := total - sys.sc.restored; math.Abs(got-billed) > 1e-6*math.Max(1, math.Abs(billed)) {
		return fmt.Errorf("danced ledger %.6f (less %.6f restored) != marketplace billed %.6f", total, sys.sc.restored, billed)
	}
	if st := sys.svc.Stats(); st.Coalesced != 0 || st.Shed != 0 {
		return fmt.Errorf("service coalesced %d and shed %d requests, want 0", st.Coalesced, st.Shed)
	}
	return nil
}
