package dance

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/dance-db/dance/internal/core"
	"github.com/dance-db/dance/internal/marketplace"
	"github.com/dance-db/dance/internal/persist"
	"github.com/dance-db/dance/internal/policy"
	"github.com/dance-db/dance/internal/safekey"
	"github.com/dance-db/dance/internal/search"
)

// This file is the danced service layer: the versioned JSON/HTTP API that
// serves DANCE acquisitions to remote shoppers. AcquireHandler wraps a
// Middleware; AcquireClient is the matching client. The v1 endpoints:
//
//	POST /v1/acquire        {request…}            → {plan}
//	POST /v1/topk           {request…, k, weights} → {options: [{plan, score}]}
//	POST /v1/execute        {plan_id}             → {purchase summary}
//	GET  /v1/plans/{id}                           → {plan}
//	GET  /v1/ledger                               → {entries, total}
//	GET  /v1/policies                             → {policies: [{name, doc, params}]}
//
// Plans are stored server-side under opaque IDs so Execute can buy exactly
// what Acquire recommended. Request deadlines map onto contexts: the HTTP
// request context (client disconnect) always applies, and an optional
// timeout_ms field adds a server-enforced deadline. Errors use the same
// {"error": …} payload as the marketplace wire protocol.

// AcquireRequest is the v1 wire form of a data-acquisition request.
type AcquireRequest struct {
	SourceAttrs  []string `json:"source_attrs,omitempty"`
	TargetAttrs  []string `json:"target_attrs"`
	Budget       float64  `json:"budget,omitempty"`
	Alpha        float64  `json:"alpha,omitempty"`
	Beta         float64  `json:"beta,omitempty"`
	Iterations   int      `json:"iterations,omitempty"`
	Eta          int      `json:"eta,omitempty"`
	ResampleRate float64  `json:"resample_rate,omitempty"`
	Landmarks    int      `json:"landmarks,omitempty"`
	MaxCovers    int      `json:"max_covers,omitempty"`
	MaxIGraphs   int      `json:"max_igraphs,omitempty"`
	Seed         int64    `json:"seed,omitempty"`
	Workers      int      `json:"workers,omitempty"`
	Greedy       bool     `json:"greedy,omitempty"`
	// Policy names the acquisition policy to plan under; omitted or empty
	// selects the server's default (the paper's own "dance" search, unless
	// the server was configured otherwise). GET /v1/policies lists the
	// choices. PolicyParams tune the chosen policy per request.
	Policy       string             `json:"policy,omitempty"`
	PolicyParams map[string]float64 `json:"policy_params,omitempty"`
	// TimeoutMS bounds the server-side search; 0 means no extra deadline
	// beyond the HTTP request context.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// toRequest converts the wire request. Workers is capped at GOMAXPROCS: a
// search is bit-identical for every worker count and sizes per-worker
// state by it, so a shopper's huge value could only exhaust memory.
func (r AcquireRequest) toRequest() Request {
	return Request{
		SourceAttrs:  r.SourceAttrs,
		TargetAttrs:  r.TargetAttrs,
		Budget:       r.Budget,
		Alpha:        r.Alpha,
		Beta:         r.Beta,
		Iterations:   r.Iterations,
		Eta:          r.Eta,
		ResampleRate: r.ResampleRate,
		Landmarks:    r.Landmarks,
		MaxCovers:    r.MaxCovers,
		MaxIGraphs:   r.MaxIGraphs,
		Seed:         r.Seed,
		Workers:      min(r.Workers, runtime.GOMAXPROCS(0)),
		Greedy:       r.Greedy,
		Policy:       r.Policy,
		PolicyParams: r.PolicyParams,
	}
}

// MetricsInfo is the v1 wire form of the four search metrics.
type MetricsInfo struct {
	Correlation float64 `json:"correlation"`
	Quality     float64 `json:"quality"`
	Weight      float64 `json:"weight"`
	Price       float64 `json:"price"`
}

func metricsInfo(m search.Metrics) MetricsInfo {
	return MetricsInfo{Correlation: m.Correlation, Quality: m.Quality, Weight: m.Weight, Price: m.Price}
}

// PlanQuery is one projection purchase of a plan.
type PlanQuery struct {
	Instance string   `json:"instance"`
	Attrs    []string `json:"attrs"`
	SQL      string   `json:"sql"`
}

// PlanInfo is the v1 wire form of an acquisition plan.
type PlanInfo struct {
	ID      string      `json:"id"`
	Queries []PlanQuery `json:"queries"`
	Est     MetricsInfo `json:"est"`
	// Policy echoes the acquisition policy that produced the plan.
	Policy string `json:"policy,omitempty"`
	// Evals counts the metric evaluations the producing search spent.
	Evals int `json:"evals,omitempty"`
}

// RankedPlanInfo is one scored top-k option.
type RankedPlanInfo struct {
	Plan  PlanInfo `json:"plan"`
	Score float64  `json:"score"`
}

// PurchaseTableInfo summarizes one bought projection.
type PurchaseTableInfo struct {
	Name string `json:"name"`
	Rows int    `json:"rows"`
}

// PurchaseInfo is the v1 wire form of an executed plan.
type PurchaseInfo struct {
	PlanID     string              `json:"plan_id"`
	TotalPrice float64             `json:"total_price"`
	JoinedRows int                 `json:"joined_rows"`
	Realized   MetricsInfo         `json:"realized"`
	Tables     []PurchaseTableInfo `json:"tables"`
}

// ServiceLedgerEntry is one charge the service incurred on behalf of its
// shoppers: offline sample purchases (complete samples and incremental
// sample deltas, reported separately so escalation spend is auditable) and
// plan executions.
type ServiceLedgerEntry struct {
	// Kind is "sample" (complete-sample purchases), "sample_delta"
	// (incremental escalation top-ups) or "purchase" (plan executions).
	Kind   string `json:"kind"`
	PlanID string `json:"plan_id,omitempty"`
	// FromRate/ToRate bracket the sampling rates of a sample round
	// (absent on purchases).
	FromRate float64 `json:"from_rate,omitempty"`
	ToRate   float64 `json:"to_rate,omitempty"`
	Amount   float64 `json:"amount"`
	// Policy attributes the charge to the acquisition policy that incurred
	// it: sample entries carry the policy whose request triggered the round
	// ("" for explicit offline refreshes), purchase entries the policy that
	// produced the executed plan.
	Policy string `json:"policy,omitempty"`
}

// LedgerInfo is the v1 wire form of the service ledger.
type LedgerInfo struct {
	Entries []ServiceLedgerEntry `json:"entries"`
	Total   float64              `json:"total"`
}

// PolicyParamInfo describes one tunable of an acquisition policy.
type PolicyParamInfo struct {
	Name    string  `json:"name"`
	Default float64 `json:"default"`
	Doc     string  `json:"doc,omitempty"`
}

// PolicyInfo is the v1 wire form of one registered acquisition policy.
type PolicyInfo struct {
	Name string `json:"name"`
	Doc  string `json:"doc,omitempty"`
	// Default marks the policy requests run under when they name none.
	Default bool              `json:"default,omitempty"`
	Params  []PolicyParamInfo `json:"params,omitempty"`
}

// PoliciesInfo is the v1 wire form of GET /v1/policies.
type PoliciesInfo struct {
	Policies []PolicyInfo `json:"policies"`
}

type topkWireRequest struct {
	AcquireRequest
	K       int           `json:"k,omitempty"`
	Weights *ScoreWeights `json:"weights,omitempty"`
}

type topkWireResponse struct {
	Options []RankedPlanInfo `json:"options"`
}

type executeWireRequest struct {
	PlanID    string `json:"plan_id"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

type serviceError struct {
	Error string `json:"error"`
}

// StatsInfo is the v1 wire form of the service's concurrency counters.
type StatsInfo struct {
	// Searches counts searches actually executed (coalesced requests share
	// one).
	Searches int64 `json:"searches"`
	// Coalesced counts requests served by joining another request's
	// in-flight search instead of starting their own.
	Coalesced int64 `json:"coalesced"`
	// Shed counts requests rejected with 429 because every search slot was
	// busy.
	Shed int64 `json:"shed"`
	// InFlight is the number of searches running right now.
	InFlight int `json:"in_flight"`
}

// flight is one in-flight coalesced search. info and err are written before
// done is closed and read only after it, so waiters never see a torn result.
// refs counts the waiters still interested; it is touched only with the
// server's flightMu held, and the last waiter to leave cancels the search.
type flight struct {
	done   chan struct{}
	cancel context.CancelFunc
	refs   int
	info   PlanInfo
	err    error
}

// acquireServer is the state behind a Service: the middleware, the plan
// store, the service ledger, and the single-flight/admission machinery.
type acquireServer struct {
	mw         *Middleware
	persist    persist.Store
	retryAfter time.Duration
	// sem bounds concurrent searches: a slot is held for the lifetime of
	// each search (acquire or topk). Leaders that cannot take a slot
	// without blocking are shed with 429 + Retry-After.
	sem chan struct{}

	mu         sync.Mutex             // lockorder: leaf
	plans      map[string]*PlanRecord // guarded by mu
	planInfos  map[string]PlanInfo    // guarded by mu
	ledger     []ServiceLedgerEntry   // guarded by mu
	seenRounds int                    // guarded by mu

	flightMu  sync.Mutex         // lockorder: leaf
	flights   map[string]*flight // guarded by flightMu
	searches  int64              // guarded by flightMu
	coalesced int64              // guarded by flightMu
	shed      int64              // guarded by flightMu
}

// ServiceOptions configure NewService.
type ServiceOptions struct {
	// Persist journals plans and ledger entries durably and restores them
	// on construction. Pass the same store to Config.Persist so the sample
	// state is durable too. Nil keeps everything in memory.
	Persist persist.Store
	// MaxInFlightSearches bounds concurrently executing searches; further
	// acquire/topk requests that cannot coalesce onto an in-flight search
	// are rejected with 429 + Retry-After. 0 or negative means twice
	// GOMAXPROCS.
	MaxInFlightSearches int
	// RetryAfter is the backoff hint sent with 429 responses (default 1s).
	RetryAfter time.Duration
}

// Service serves a Middleware over the versioned JSON/HTTP v1 API with
// single-flight coalescing of identical acquisitions, bounded in-flight
// searches, and (optionally) durable plans and ledger. Construct with
// NewService, serve Handler(), and Close() on shutdown to flush the journal.
type Service struct {
	s *acquireServer
}

// NewService builds a service around mw. With opts.Persist it restores the
// plans and ledger a previous process journaled, so a restarted danced
// resumes with the same ledger total and can still execute old plan IDs.
func NewService(mw *Middleware, opts ServiceOptions) (*Service, error) {
	if opts.MaxInFlightSearches <= 0 {
		opts.MaxInFlightSearches = 2 * runtime.GOMAXPROCS(0)
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	s := &acquireServer{
		mw:         mw,
		persist:    opts.Persist,
		retryAfter: opts.RetryAfter,
		sem:        make(chan struct{}, opts.MaxInFlightSearches),
		plans:      make(map[string]*PlanRecord),
		planInfos:  make(map[string]PlanInfo),
		flights:    make(map[string]*flight),
	}
	if opts.Persist != nil {
		st, err := opts.Persist.Load()
		if err != nil {
			return nil, fmt.Errorf("dance: restoring service state: %w", err)
		}
		core.Preload(mw, opts.Persist, st)
		for _, e := range st.Ledger {
			s.ledger = append(s.ledger, ServiceLedgerEntry{
				Kind: e.Kind, PlanID: e.PlanID, FromRate: e.FromRate, ToRate: e.ToRate,
				Amount: e.Amount, Policy: e.Policy,
			})
		}
		for _, p := range st.Plans {
			rec := fromPersistPlan(p)
			s.plans[p.ID] = rec
			s.planInfos[p.ID] = planInfoOf(p.ID, rec)
		}
	}
	return &Service{s: s}, nil
}

// Handler returns the v1 API handler.
func (svc *Service) Handler() http.Handler {
	s := svc.s
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/acquire", s.handleAcquire)
	mux.HandleFunc("POST /v1/topk", s.handleTopK)
	mux.HandleFunc("POST /v1/execute", s.handleExecute)
	mux.HandleFunc("GET /v1/plans/{id}", s.handlePlan)
	mux.HandleFunc("GET /v1/ledger", s.handleLedger)
	mux.HandleFunc("GET /v1/policies", s.handlePolicies)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

// Stats snapshots the coalescing/admission counters.
func (svc *Service) Stats() StatsInfo {
	s := svc.s
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	return StatsInfo{Searches: s.searches, Coalesced: s.coalesced, Shed: s.shed, InFlight: len(s.sem)}
}

// Close settles outstanding sample spend into the ledger and flushes and
// closes the persist journal (a no-op without one). Call it after the HTTP
// server has drained so every billed cent is on disk before exit.
func (svc *Service) Close() error {
	s := svc.s
	s.mu.Lock()
	err := s.recordSampleSpendLocked()
	s.mu.Unlock()
	if s.persist != nil {
		if ferr := s.persist.Flush(); err == nil {
			err = ferr
		}
		if cerr := s.persist.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// AcquireHandler serves a Middleware over the versioned JSON/HTTP v1 API
// described above with default service options and no durability. The
// handler is safe for concurrent use; plans live in memory for the life of
// the handler. Use NewService to configure persistence and admission.
func AcquireHandler(mw *Middleware) http.Handler {
	svc, err := NewService(mw, ServiceOptions{})
	if err != nil {
		panic(err) // unreachable: no persist store, nothing to restore
	}
	return svc.Handler()
}

func writeServiceJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeServiceErr maps an error to the wire: the {"error"} payload of the
// marketplace protocol plus a status that tells deadline (504), infeasible
// (422) and not-found (404) apart from generic failures.
func writeServiceErr(w http.ResponseWriter, code int, err error) {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	case errors.As(err, &tooLarge):
		code = http.StatusRequestEntityTooLarge
	}
	writeServiceJSON(w, code, serviceError{Error: err.Error()})
}

// decodeServiceRequest decodes a JSON request body into v, reading at most
// the marketplace's MaxRequestBytes; a larger body fails with an
// *http.MaxBytesError, which writeServiceErr answers with 413.
func decodeServiceRequest(w http.ResponseWriter, r *http.Request, v interface{}) error {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, marketplace.MaxRequestBytes)).Decode(v)
}

// newPlanID mints an opaque identifier. IDs carry no meaning; the store is
// the only way to resolve them.
func newPlanID() string {
	var b [9]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("dance: plan id entropy: %v", err)) // crypto/rand does not fail on supported platforms
	}
	return "pl_" + hex.EncodeToString(b[:])
}

// requestCtx derives the working context: the HTTP request context plus the
// optional server-enforced timeout.
func requestCtx(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	if timeoutMS > 0 {
		return context.WithTimeout(r.Context(), time.Duration(timeoutMS)*time.Millisecond)
	}
	return r.Context(), func() {}
}

// appendLedgerLocked records one charge in memory and in the journal.
// Caller holds s.mu.
func (s *acquireServer) appendLedgerLocked(e ServiceLedgerEntry) error {
	s.ledger = append(s.ledger, e)
	if s.persist == nil {
		return nil
	}
	if err := s.persist.AppendLedger(persist.LedgerRecord{
		Kind: e.Kind, PlanID: e.PlanID, FromRate: e.FromRate, ToRate: e.ToRate,
		Amount: e.Amount, Policy: e.Policy,
	}); err != nil {
		return fmt.Errorf("dance: journaling ledger entry: %w", err)
	}
	return nil
}

// recordSampleSpendLocked appends ledger entries for any offline sample
// rounds since the last check, splitting complete-sample purchases from
// delta top-ups so escalations are visibly billed at the difference.
// Caller holds s.mu.
func (s *acquireServer) recordSampleSpendLocked() error {
	rounds := s.mw.SampleRounds()
	var err error
	for _, r := range rounds[s.seenRounds:] {
		if r.FullCost > 0 {
			if e := s.appendLedgerLocked(ServiceLedgerEntry{
				Kind: "sample", FromRate: r.FromRate, ToRate: r.ToRate, Amount: r.FullCost, Policy: r.Policy,
			}); err == nil {
				err = e
			}
		}
		if r.DeltaCost > 0 {
			if e := s.appendLedgerLocked(ServiceLedgerEntry{
				Kind: "sample_delta", FromRate: r.FromRate, ToRate: r.ToRate, Amount: r.DeltaCost, Policy: r.Policy,
			}); err == nil {
				err = e
			}
		}
	}
	s.seenRounds = len(rounds)
	return err
}

// planInfoOf builds the wire form of a stored plan record.
func planInfoOf(id string, rec *PlanRecord) PlanInfo {
	info := PlanInfo{ID: id, Est: metricsInfo(rec.Est), Policy: rec.Request.Policy, Evals: rec.Evals}
	for _, q := range rec.Queries {
		info.Queries = append(info.Queries, PlanQuery{Instance: q.Instance, Attrs: q.Attrs, SQL: q.String()})
	}
	return info
}

// toPersistPlan flattens a stored plan into its journal record.
func toPersistPlan(id string, rec *PlanRecord) persist.PlanRecord {
	p := persist.PlanRecord{
		ID:     id,
		Weight: rec.Weight,
		FDs:    rec.FDs,
		Evals:  rec.Evals,
		Est: persist.MetricsRecord{
			Correlation: rec.Est.Correlation, Quality: rec.Est.Quality,
			Weight: rec.Est.Weight, Price: rec.Est.Price,
		},
		Request: persist.RequestRecord{
			SourceAttrs:  rec.Request.SourceAttrs,
			TargetAttrs:  rec.Request.TargetAttrs,
			Budget:       rec.Request.Budget,
			Alpha:        rec.Request.Alpha,
			Beta:         rec.Request.Beta,
			Iterations:   rec.Request.Iterations,
			Eta:          rec.Request.Eta,
			ResampleRate: rec.Request.ResampleRate,
			Landmarks:    rec.Request.Landmarks,
			MaxCovers:    rec.Request.MaxCovers,
			MaxIGraphs:   rec.Request.MaxIGraphs,
			Seed:         rec.Request.Seed,
			Greedy:       rec.Request.Greedy,
			Policy:       rec.Request.Policy,
			PolicyParams: rec.Request.PolicyParams,
		},
	}
	for _, q := range rec.Queries {
		p.Queries = append(p.Queries, persist.QueryRecord{Instance: q.Instance, Attrs: q.Attrs})
	}
	for _, st := range rec.Steps {
		p.Steps = append(p.Steps, persist.JoinStepRecord{Table: st.Table, On: st.On})
	}
	return p
}

// fromPersistPlan rebuilds a stored plan from its journal record.
func fromPersistPlan(p persist.PlanRecord) *PlanRecord {
	rec := &PlanRecord{
		Weight: p.Weight,
		FDs:    p.FDs,
		Evals:  p.Evals,
		Est: Metrics{
			Correlation: p.Est.Correlation, Quality: p.Est.Quality,
			Weight: p.Est.Weight, Price: p.Est.Price,
		},
		Request: Request{
			SourceAttrs:  p.Request.SourceAttrs,
			TargetAttrs:  p.Request.TargetAttrs,
			Budget:       p.Request.Budget,
			Alpha:        p.Request.Alpha,
			Beta:         p.Request.Beta,
			Iterations:   p.Request.Iterations,
			Eta:          p.Request.Eta,
			ResampleRate: p.Request.ResampleRate,
			Landmarks:    p.Request.Landmarks,
			MaxCovers:    p.Request.MaxCovers,
			MaxIGraphs:   p.Request.MaxIGraphs,
			Seed:         p.Request.Seed,
			Greedy:       p.Request.Greedy,
			Policy:       p.Request.Policy,
			PolicyParams: p.Request.PolicyParams,
		},
	}
	for _, q := range p.Queries {
		rec.Queries = append(rec.Queries, Query{Instance: q.Instance, Attrs: q.Attrs})
	}
	for _, st := range p.Steps {
		rec.Steps = append(rec.Steps, JoinStep{Table: st.Table, On: st.On})
	}
	return rec
}

// storePlan flattens and registers a plan under a fresh opaque ID, returns
// its wire form, journals it, and settles sample spending into the ledger.
func (s *acquireServer) storePlan(plan *Plan) (PlanInfo, error) {
	rec, err := plan.Record()
	if err != nil {
		return PlanInfo{}, err
	}
	info := planInfoOf(newPlanID(), rec)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.plans[info.ID] = rec
	s.planInfos[info.ID] = info
	if err := s.recordSampleSpendLocked(); err != nil {
		return PlanInfo{}, err
	}
	if s.persist != nil {
		if err := s.persist.SavePlan(toPersistPlan(info.ID, rec)); err != nil {
			return PlanInfo{}, fmt.Errorf("dance: journaling plan: %w", err)
		}
	}
	return info, nil
}

// statusFor distinguishes infeasible acquisitions (the request's
// constraints admit no plan — the shopper's problem) from server failures.
func statusFor(err error) int {
	if errors.Is(err, ErrInfeasible) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

// acquireFingerprint identifies the search an acquire request will run.
// Requests with equal fingerprints produce identical plans (the search is
// seeded), so concurrent duplicates can share one in-flight search. Workers
// and TimeoutMS are excluded: they change how a search runs, not what it
// computes.
func acquireFingerprint(req AcquireRequest) string {
	parts := []string{"acquire", strconv.Itoa(len(req.SourceAttrs))}
	parts = append(parts, req.SourceAttrs...)
	parts = append(parts, strconv.Itoa(len(req.TargetAttrs)))
	parts = append(parts, req.TargetAttrs...)
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	parts = append(parts,
		f(req.Budget), f(req.Alpha), f(req.Beta),
		strconv.Itoa(req.Iterations), strconv.Itoa(req.Eta), f(req.ResampleRate),
		strconv.Itoa(req.Landmarks), strconv.Itoa(req.MaxCovers), strconv.Itoa(req.MaxIGraphs),
		strconv.FormatInt(req.Seed, 10), strconv.FormatBool(req.Greedy),
	)
	// Policy selection changes what a search computes, so it is part of the
	// identity; params are keyed in sorted order for a canonical form.
	parts = append(parts, req.Policy, strconv.Itoa(len(req.PolicyParams)))
	keys := make([]string, 0, len(req.PolicyParams))
	for k := range req.PolicyParams {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		parts = append(parts, k, f(req.PolicyParams[k]))
	}
	return safekey.Join(parts...)
}

// writeOverloaded sheds a request: 429 plus a Retry-After hint.
func (s *acquireServer) writeOverloaded(w http.ResponseWriter) {
	secs := int((s.retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeServiceJSON(w, http.StatusTooManyRequests, serviceError{Error: ErrOverloaded.Error()})
}

// runSearch executes one coalesced search as its leader: it owns a
// semaphore slot, publishes the result into the flight, and wakes every
// waiter. The search context is detached from the leader's HTTP request —
// the flight must survive its leader disconnecting while followers wait —
// and is canceled by the last waiter to leave.
func (s *acquireServer) runSearch(key string, f *flight, ctx context.Context, req AcquireRequest) {
	plan, err := s.mw.Acquire(ctx, req.toRequest())
	var info PlanInfo
	if err == nil {
		info, err = s.storePlan(plan)
	}
	f.info, f.err = info, err
	s.flightMu.Lock()
	delete(s.flights, key)
	s.flightMu.Unlock()
	// Free the slot before waking the waiters: a client that sends its
	// next request as soon as it has this answer must not be shed.
	<-s.sem
	close(f.done)
}

// awaitFlight parks one request on a flight until the search finishes or
// the request's own deadline expires. Each waiter holds a reference; the
// last to give up cancels the search so an abandoned flight does not burn
// a slot.
func (s *acquireServer) awaitFlight(w http.ResponseWriter, r *http.Request, timeoutMS int64, f *flight) {
	ctx, cancel := requestCtx(r, timeoutMS)
	defer cancel()
	select {
	case <-f.done:
		if f.err != nil {
			writeServiceErr(w, statusFor(f.err), f.err)
			return
		}
		writeServiceJSON(w, http.StatusOK, f.info)
	case <-ctx.Done():
		s.flightMu.Lock()
		f.refs--
		abandoned := f.refs == 0
		s.flightMu.Unlock()
		if abandoned {
			f.cancel()
		}
		writeServiceErr(w, http.StatusInternalServerError, ctx.Err())
	}
}

func (s *acquireServer) handleAcquire(w http.ResponseWriter, r *http.Request) {
	var req AcquireRequest
	if err := decodeServiceRequest(w, r, &req); err != nil {
		writeServiceErr(w, http.StatusBadRequest, err)
		return
	}
	key := acquireFingerprint(req)
	s.flightMu.Lock()
	if f, ok := s.flights[key]; ok {
		f.refs++
		s.coalesced++
		s.flightMu.Unlock()
		s.awaitFlight(w, r, req.TimeoutMS, f)
		return
	}
	select {
	case s.sem <- struct{}{}:
	default:
		s.shed++
		s.flightMu.Unlock()
		s.writeOverloaded(w)
		return
	}
	f := &flight{done: make(chan struct{}), refs: 1}
	searchCtx, searchCancel := context.WithCancel(context.WithoutCancel(r.Context()))
	f.cancel = searchCancel
	s.flights[key] = f
	s.searches++
	s.flightMu.Unlock()
	go s.runSearch(key, f, searchCtx, req)
	s.awaitFlight(w, r, req.TimeoutMS, f)
}

func (s *acquireServer) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req topkWireRequest
	if err := decodeServiceRequest(w, r, &req); err != nil {
		writeServiceErr(w, http.StatusBadRequest, err)
		return
	}
	// Top-k searches are admission-controlled like acquires (they are at
	// least as expensive) but not coalesced: k and weights multiply the
	// variants too far to be worth fingerprinting.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.flightMu.Lock()
		s.shed++
		s.flightMu.Unlock()
		s.writeOverloaded(w)
		return
	}
	ctx, cancel := requestCtx(r, req.TimeoutMS)
	defer cancel()
	weights := DefaultScoreWeights()
	if req.Weights != nil {
		weights = *req.Weights
	}
	options, err := s.mw.AcquireTopK(ctx, req.toRequest(), req.K, weights)
	if err != nil {
		writeServiceErr(w, statusFor(err), err)
		return
	}
	resp := topkWireResponse{Options: make([]RankedPlanInfo, len(options))}
	for i, o := range options {
		info, err := s.storePlan(o.Plan)
		if err != nil {
			writeServiceErr(w, http.StatusInternalServerError, err)
			return
		}
		resp.Options[i] = RankedPlanInfo{Plan: info, Score: o.Score}
	}
	writeServiceJSON(w, http.StatusOK, resp)
}

// policiesInfo flattens the policy registry into its wire form.
func policiesInfo() PoliciesInfo {
	var out PoliciesInfo
	for _, name := range policy.Names() {
		p, err := policy.Get(name)
		if err != nil {
			continue // unreachable: Names() only lists registered policies
		}
		info := PolicyInfo{Name: name, Doc: p.Doc(), Default: name == policy.DefaultName}
		for _, ps := range p.Params() {
			info.Params = append(info.Params, PolicyParamInfo{Name: ps.Name, Default: ps.Default, Doc: ps.Doc})
		}
		out.Policies = append(out.Policies, info)
	}
	return out
}

func (s *acquireServer) handlePolicies(w http.ResponseWriter, r *http.Request) {
	writeServiceJSON(w, http.StatusOK, policiesInfo())
}

func (s *acquireServer) handleStats(w http.ResponseWriter, r *http.Request) {
	s.flightMu.Lock()
	st := StatsInfo{Searches: s.searches, Coalesced: s.coalesced, Shed: s.shed, InFlight: len(s.sem)}
	s.flightMu.Unlock()
	writeServiceJSON(w, http.StatusOK, st)
}

func (s *acquireServer) handleExecute(w http.ResponseWriter, r *http.Request) {
	var req executeWireRequest
	if err := decodeServiceRequest(w, r, &req); err != nil {
		writeServiceErr(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	rec, ok := s.plans[req.PlanID]
	s.mu.Unlock()
	if !ok {
		writeServiceErr(w, http.StatusNotFound, fmt.Errorf("dance: no plan %q", req.PlanID))
		return
	}
	ctx, cancel := requestCtx(r, req.TimeoutMS)
	defer cancel()
	purchase, err := s.mw.ExecuteRecord(ctx, rec)
	if err != nil {
		// A failed execution may still have bought (and been charged for)
		// some projections; the ledger must not lose that spend.
		if purchase != nil && purchase.TotalPrice > 0 {
			s.mu.Lock()
			s.appendLedgerLocked(ServiceLedgerEntry{
				Kind: "purchase", PlanID: req.PlanID, Amount: purchase.TotalPrice, Policy: rec.Request.Policy,
			})
			s.mu.Unlock()
		}
		writeServiceErr(w, statusFor(err), err)
		return
	}
	info := PurchaseInfo{
		PlanID:     req.PlanID,
		TotalPrice: purchase.TotalPrice,
		JoinedRows: purchase.Joined.NumRows(),
		Realized:   metricsInfo(purchase.Realized),
	}
	for _, t := range purchase.Tables {
		info.Tables = append(info.Tables, PurchaseTableInfo{Name: t.Name, Rows: t.NumRows()})
	}
	s.mu.Lock()
	// Journal failures do not fail the response: the purchase already
	// happened and the shopper has the data. The error resurfaces on the
	// next /v1/ledger read instead.
	s.appendLedgerLocked(ServiceLedgerEntry{
		Kind: "purchase", PlanID: req.PlanID, Amount: purchase.TotalPrice, Policy: rec.Request.Policy,
	})
	s.mu.Unlock()
	writeServiceJSON(w, http.StatusOK, info)
}

func (s *acquireServer) handlePlan(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	info, ok := s.planInfos[id]
	s.mu.Unlock()
	if !ok {
		writeServiceErr(w, http.StatusNotFound, fmt.Errorf("dance: no plan %q", id))
		return
	}
	writeServiceJSON(w, http.StatusOK, info)
}

func (s *acquireServer) handleLedger(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	err := s.recordSampleSpendLocked()
	out := LedgerInfo{Entries: append([]ServiceLedgerEntry(nil), s.ledger...)}
	s.mu.Unlock()
	if err != nil {
		writeServiceErr(w, http.StatusInternalServerError, err)
		return
	}
	for _, e := range out.Entries {
		out.Total += e.Amount
	}
	writeServiceJSON(w, http.StatusOK, out)
}

// ErrOverloaded marks acquisitions the service shed because every search
// slot was busy and the request could not coalesce onto an in-flight
// search. It is transient by construction: test with errors.Is, read the
// server's backoff hint with RetryAfter, and retry.
var ErrOverloaded = errors.New("dance: service overloaded; retry later")

// overloadedError carries the server's Retry-After hint while remaining
// errors.Is-matchable against ErrOverloaded via Unwrap.
type overloadedError struct {
	retryAfter time.Duration
}

func (e *overloadedError) Error() string {
	if e.retryAfter > 0 {
		return fmt.Sprintf("%v (retry after %v)", ErrOverloaded, e.retryAfter)
	}
	return ErrOverloaded.Error()
}

func (e *overloadedError) Unwrap() error { return ErrOverloaded }

// RetryAfter extracts the service's backoff hint from an ErrOverloaded
// error chain. ok is false when err carries no hint.
func RetryAfter(err error) (d time.Duration, ok bool) {
	var oe *overloadedError
	if errors.As(err, &oe) {
		return oe.retryAfter, true
	}
	return 0, false
}

// DefaultAcquireClientTimeout caps one danced round trip when the caller
// supplies no context deadline of its own. Acquisitions search sample
// joins and can legitimately run for minutes; a hung service still must
// not block a shopper forever. Caller deadlines — shorter or longer —
// always win.
const DefaultAcquireClientTimeout = 10 * time.Minute

// AcquireClient talks to a danced service (AcquireHandler / cmd/danced).
// Every call honors its context: cancellation and deadlines abort the
// in-flight HTTP request.
type AcquireClient struct {
	BaseURL string
	// HTTP is the underlying client; replace it to tune the transport.
	HTTP *http.Client
	// Timeout bounds one round trip when the caller's context carries no
	// deadline; a caller deadline of any length takes precedence.
	// NewAcquireClient sets DefaultAcquireClientTimeout; zero or negative
	// disables the fallback.
	Timeout time.Duration
}

// NewAcquireClient returns a client for the danced service at baseURL.
func NewAcquireClient(baseURL string) *AcquireClient {
	return &AcquireClient{
		BaseURL: strings.TrimRight(baseURL, "/"),
		HTTP:    &http.Client{},
		Timeout: DefaultAcquireClientTimeout,
	}
}

func (c *AcquireClient) do(ctx context.Context, method, path string, in, out interface{}) error {
	if _, ok := ctx.Deadline(); !ok && c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return fmt.Errorf("dance client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		// Map the service's status contract back onto sentinel errors so
		// remote shoppers can errors.Is-distinguish "your request admits no
		// plan" (422) and server-enforced deadlines (504) from transient
		// failures.
		var sentinel error
		switch resp.StatusCode {
		case http.StatusUnprocessableEntity:
			sentinel = ErrInfeasible
		case http.StatusGatewayTimeout:
			sentinel = context.DeadlineExceeded
		case http.StatusTooManyRequests:
			secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			sentinel = &overloadedError{retryAfter: time.Duration(secs) * time.Second}
		}
		var e serviceError
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			if sentinel != nil {
				// The server message usually already ends with the sentinel
				// text; don't print it twice. Overloaded errors wrap
				// ErrOverloaded with a local retry hint, so trim the base
				// sentinel text the server actually sent.
				base := sentinel.Error()
				if errors.Is(sentinel, ErrOverloaded) {
					base = ErrOverloaded.Error()
				}
				msg := strings.TrimSuffix(strings.TrimSuffix(e.Error, base), ": ")
				if msg == "" {
					return fmt.Errorf("dance client: %w", sentinel)
				}
				return fmt.Errorf("dance client: %s: %w", msg, sentinel)
			}
			return fmt.Errorf("dance client: %s", e.Error)
		}
		if sentinel != nil {
			return fmt.Errorf("dance client: status %d: %w", resp.StatusCode, sentinel)
		}
		return fmt.Errorf("dance client: status %d", resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// deadlineMS converts a context deadline into a timeout_ms wire value so
// the server enforces the shopper's deadline too, instead of relying only
// on disconnect propagation. Returns 0 when ctx has no deadline.
func deadlineMS(ctx context.Context) int64 {
	d, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := time.Until(d).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return ms
}

// Acquire asks the service for one acquisition plan. A context deadline is
// forwarded as timeout_ms (unless the request sets its own), so the server
// stops searching when the shopper's deadline expires.
func (c *AcquireClient) Acquire(ctx context.Context, req AcquireRequest) (*PlanInfo, error) {
	if req.TimeoutMS == 0 {
		req.TimeoutMS = deadlineMS(ctx)
	}
	var out PlanInfo
	if err := c.do(ctx, http.MethodPost, "/v1/acquire", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AcquireTopK asks the service for up to k scored acquisition options. A
// nil weights uses the service defaults. Context deadlines forward as in
// Acquire.
func (c *AcquireClient) AcquireTopK(ctx context.Context, req AcquireRequest, k int, weights *ScoreWeights) ([]RankedPlanInfo, error) {
	if req.TimeoutMS == 0 {
		req.TimeoutMS = deadlineMS(ctx)
	}
	var out topkWireResponse
	in := topkWireRequest{AcquireRequest: req, K: k, Weights: weights}
	if err := c.do(ctx, http.MethodPost, "/v1/topk", in, &out); err != nil {
		return nil, err
	}
	return out.Options, nil
}

// Execute buys a previously returned plan by ID. A context deadline is
// forwarded as timeout_ms so the server bounds the purchase too.
func (c *AcquireClient) Execute(ctx context.Context, planID string) (*PurchaseInfo, error) {
	var out PurchaseInfo
	in := executeWireRequest{PlanID: planID, TimeoutMS: deadlineMS(ctx)}
	if err := c.do(ctx, http.MethodPost, "/v1/execute", in, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Plan fetches a stored plan by ID.
func (c *AcquireClient) Plan(ctx context.Context, planID string) (*PlanInfo, error) {
	var out PlanInfo
	if err := c.do(ctx, http.MethodGet, "/v1/plans/"+planID, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Ledger fetches the service's charge record.
func (c *AcquireClient) Ledger(ctx context.Context) (*LedgerInfo, error) {
	var out LedgerInfo
	if err := c.do(ctx, http.MethodGet, "/v1/ledger", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Policies fetches the service's registered acquisition policies and their
// tunable parameters. Pass a listed name as AcquireRequest.Policy.
func (c *AcquireClient) Policies(ctx context.Context) (*PoliciesInfo, error) {
	var out PoliciesInfo
	if err := c.do(ctx, http.MethodGet, "/v1/policies", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches the service's coalescing and admission counters.
func (c *AcquireClient) Stats(ctx context.Context) (*StatsInfo, error) {
	var out StatsInfo
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
