// Package core implements DANCE, the data-acquisition middleware of the
// paper (Fig 1). The offline phase buys correlated samples from the
// marketplace and builds the two-layer join graph; the online phase turns an
// acquisition request into a search over the join graph, escalating the
// sample rate when no feasible plan exists, and finally emits the SQL
// projection queries the shopper sends to the marketplace.
//
// Every entry point takes a context.Context: deadlines and cancellation
// propagate through marketplace I/O and down into the MCMC search loop. The
// middleware is safe for concurrent use — per-request execution runs on an
// immutable snapshot of the offline state, and sample-rate escalation
// serializes graph rebuilds behind a mutex.
package core

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/joingraph"
	"github.com/dance-db/dance/internal/marketplace"
	"github.com/dance-db/dance/internal/offline"
	"github.com/dance-db/dance/internal/parallel"
	"github.com/dance-db/dance/internal/persist"
	"github.com/dance-db/dance/internal/policy"
	"github.com/dance-db/dance/internal/pricing"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/search"
)

// Config controls the middleware.
type Config struct {
	// SampleRate is the initial correlated-sampling rate for the offline
	// phase (default 0.3).
	SampleRate float64
	// SampleSeed drives the marketplace-side correlated sampling; one seed
	// is shared across datasets so samples stay join-consistent.
	SampleSeed uint64
	// MaxJoinAttrs caps join-attribute subsets per I-edge (default 3).
	MaxJoinAttrs int
	// MaxSampleRounds bounds the iterative refresh of Sec 2.1: when no
	// feasible plan is found, DANCE buys more samples (rate × RateGrowth)
	// and retries (default 3 rounds).
	MaxSampleRounds int
	// RateGrowth multiplies the sampling rate per refresh (default 2).
	RateGrowth float64
	// DiscoverFDs discovers AFDs on samples for datasets that publish
	// none.
	DiscoverFDs bool
	// FDOptions configure discovery when DiscoverFDs is set.
	FDOptions fd.DiscoveryOptions
	// Workers bounds concurrency throughout the middleware: the offline
	// phase fetches per-dataset samples and FDs with up to Workers
	// concurrent marketplace calls (pure I/O fan-out against an HTTP
	// marketplace), and requests that leave their own Workers knob unset
	// inherit it for the parallel search. 0 or negative means one worker
	// per CPU; 1 forces fully serial operation.
	Workers int
	// Persist journals the sample store durably: before the first offline
	// round the middleware restores every persisted dataset (making an
	// Offline refresh at the persisted rate free), and after each round it
	// saves the datasets whose state changed. Samples cost money; nil
	// keeps the pre-durability in-memory-only behavior.
	Persist persist.Store
	// Policy names the acquisition policy requests run under when they
	// name none themselves ("" = the paper's own "dance" search). See
	// internal/policy for the registry.
	Policy string
	// PolicyParams are default policy tunables; per-request
	// search.Request.PolicyParams override them key by key.
	PolicyParams map[string]float64
}

func (c Config) withDefaults() Config {
	if c.SampleRate <= 0 {
		c.SampleRate = 0.3
	}
	if c.MaxJoinAttrs <= 0 {
		c.MaxJoinAttrs = 3
	}
	if c.MaxSampleRounds <= 0 {
		c.MaxSampleRounds = 3
	}
	if c.RateGrowth <= 1 {
		c.RateGrowth = 2
	}
	if c.DiscoverFDs && c.FDOptions.MaxError == 0 {
		c.FDOptions = fd.DefaultDiscoveryOptions()
	}
	return c
}

// source is a shopper-owned instance, held as its columnar encoding: built
// once at registration and shared by the searcher (as the instance's
// sample) and by every execute (as the full data).
type source struct {
	cols *relation.Columnar
	fds  []fd.FD
}

// Dance is the middleware. Construct with New, register owned data with
// AddSource, then Acquire/Execute per request (Offline runs lazily on first
// use; call it explicitly to refresh samples). All methods are safe for
// concurrent use.
type Dance struct {
	market marketplace.Market
	cfg    Config

	// store is the versioned offline sample state: merged incrementally by
	// delta purchases, snapshotted immutably per rebuild.
	store *offline.SampleStore

	// offlineMu serializes offline rebuilds (catalog fetch, sample
	// purchases, graph construction): concurrent escalations must not buy
	// duplicate sample rounds. It is never held while mu is wanted by
	// readers for long — the slow work happens with only offlineMu held.
	// lockorder: before mu
	offlineMu sync.Mutex
	// restored and persisted belong to the offline path: they are touched
	// only with offlineMu held (restore, rebuild). persisted marks the
	// per-dataset state already journaled to cfg.Persist, so unchanged
	// datasets are not re-written every round.
	restored  bool
	persisted map[string]persistedMark
	// preloaded is a State the service layer already loaded from
	// cfg.Persist; restore uses it instead of replaying the journal again.
	preloaded *persist.State

	// mu guards the mutable middleware state below. Requests read a
	// consistent (rate, graph, searcher) snapshot under mu and then run on
	// it lock-free; rebuilds commit a fully-built replacement under mu.
	mu         sync.Mutex
	rate       float64          // guarded by mu
	sources    []source         // guarded by mu
	sampleCost float64          // guarded by mu
	rounds     []SampleRound    // guarded by mu
	graph      *joingraph.Graph // guarded by mu
	searcher   *search.Searcher // guarded by mu
}

// SampleRound records what one offline round bought: full samples (first
// purchase of a dataset, or a re-buy after sampling parameters changed) and
// delta top-ups (the incremental escalation path). Service layers surface
// these in their ledgers so shoppers can see that escalations bill only
// the difference.
type SampleRound struct {
	// FromRate is the store-wide rate before the round (0 on the first).
	FromRate float64
	// ToRate is the rate the round escalated to.
	ToRate float64
	// FullCost sums the complete-sample purchases of the round.
	FullCost float64
	// DeltaCost sums the delta purchases of the round.
	DeltaCost float64
	// Policy names the acquisition policy whose request triggered the
	// round ("" for explicit Offline/Escalate calls), so service ledgers
	// can attribute sample spend per policy.
	Policy string
}

// New creates a middleware bound to a marketplace.
func New(market marketplace.Market, cfg Config) *Dance {
	cfg = cfg.withDefaults()
	return &Dance{
		market:    market,
		cfg:       cfg,
		rate:      cfg.SampleRate,
		store:     offline.NewSampleStore(),
		persisted: make(map[string]persistedMark),
	}
}

// persistedMark records the dataset state last journaled to cfg.Persist. An
// empty-delta escalation changes a dataset's covered rate without bumping
// its version, and a first FD resolution to the empty set changes the
// resolved marker the same way, so the version alone cannot decide whether
// a re-save is due.
type persistedMark struct {
	version     uint64
	rate        float64
	fdsResolved bool
}

func markOf(ds *offline.Dataset) persistedMark {
	return persistedMark{version: ds.Version, rate: ds.Rate, fdsResolved: ds.FDs != nil}
}

// Preload hands d a State its caller just loaded from store, so that d's
// restore does not replay the journal a second time. It does nothing
// unless store is d's own Config.Persist and d has not restored yet. Only
// the middleware journals datasets and the rate, and only after it
// restored, so the State is still current when restore uses it.
func Preload(d *Dance, store persist.Store, st *persist.State) {
	// == panics on two Stores of one uncomparable type; such stores are
	// never the same one here.
	if d.cfg.Persist == nil || !reflect.ValueOf(store).Comparable() || d.cfg.Persist != store {
		return
	}
	d.offlineMu.Lock()
	defer d.offlineMu.Unlock()
	if !d.restored {
		d.preloaded = st
	}
}

// restore loads the persisted offline state into the sample store, once per
// middleware. Restored datasets make the next rebuild's purchases free (at
// the persisted rate) or delta-only (above it). The caller must hold
// offlineMu.
func (d *Dance) restore() error {
	if d.cfg.Persist == nil || d.restored {
		return nil
	}
	d.restored = true
	st := d.preloaded
	d.preloaded = nil
	if st == nil {
		var err error
		if st, err = d.cfg.Persist.Load(); err != nil {
			return fmt.Errorf("dance: restoring offline state: %w", err)
		}
	}
	for _, ds := range st.Datasets {
		d.store.Replace(ds.Name, ds.Table, ds.JoinAttrs, ds.Seed, ds.Rate, ds.FullRows)
		if ds.FDsResolved {
			if err := d.store.SetFDs(ds.Name, ds.FDs); err != nil {
				return fmt.Errorf("dance: restoring FDs of %s: %w", ds.Name, err)
			}
		}
	}
	for _, ds := range d.store.Snapshot().Datasets() {
		d.persisted[ds.Name] = markOf(ds)
	}
	if st.Rate > 0 {
		d.store.CommitRate(st.Rate)
		d.mu.Lock()
		// The persisted rate resumes where the crashed session left off;
		// a higher configured SampleRate still wins (the rebuild then buys
		// only the deltas above the restored holdings).
		if st.Rate > d.rate {
			d.rate = st.Rate
		}
		d.mu.Unlock()
	}
	return nil
}

// persistRound journals every dataset whose state changed in this round,
// plus the committed rate. The caller must hold offlineMu.
func (d *Dance) persistRound(snap *offline.Snapshot, rate float64) error {
	if d.cfg.Persist == nil {
		return nil
	}
	for _, ds := range snap.Datasets() {
		if d.persisted[ds.Name] == markOf(ds) {
			continue
		}
		rec := persist.DatasetRecord{
			Name:        ds.Name,
			JoinAttrs:   ds.JoinAttrs,
			Seed:        ds.Seed,
			Rate:        ds.Rate,
			FullRows:    ds.FullRows,
			FDs:         ds.FDs,
			FDsResolved: ds.FDs != nil,
		}
		if err := d.cfg.Persist.SaveDataset(rec, ds.Cols.ToTable()); err != nil {
			return fmt.Errorf("dance: persisting sample of %s: %w", ds.Name, err)
		}
		d.persisted[ds.Name] = markOf(ds)
	}
	if err := d.cfg.Persist.SaveRate(rate); err != nil {
		return fmt.Errorf("dance: persisting sample rate: %w", err)
	}
	return nil
}

// AddSource registers shopper-owned data (the S of the acquisition request).
// Must be called before the first Offline/Acquire.
func (d *Dance) AddSource(t *relation.Table, fds []fd.FD) {
	cols := relation.ToColumnar(t)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sources = append(d.sources, source{cols: cols, fds: fds})
}

// SampleCost returns what DANCE has paid the marketplace for samples so far.
func (d *Dance) SampleCost() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sampleCost
}

// SampleRounds returns the per-round sample spend log, oldest first.
func (d *Dance) SampleRounds() []SampleRound {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]SampleRound(nil), d.rounds...)
}

// SampleRate returns the current offline sampling rate.
func (d *Dance) SampleRate() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rate
}

// Graph exposes the current join graph (nil before Offline).
func (d *Dance) Graph() *joingraph.Graph {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.graph
}

// snapshot is the per-request view of the offline state: requests search a
// consistent graph even while another request escalates the sample rate.
type snapshot struct {
	rate     float64
	graph    *joingraph.Graph
	searcher *search.Searcher
}

// Offline runs the offline phase: fetch the catalog, buy correlated samples
// of every dataset at the current rate, collect published (or discovered)
// AFDs, and build the join graph. Calling it again refreshes the graph from
// the sample store without re-buying anything (datasets already sampled at
// the current rate are free no-ops; new catalog entries are bought in
// full). Cancelling ctx aborts the in-flight marketplace calls and returns
// ctx.Err().
func (d *Dance) Offline(ctx context.Context) error {
	d.offlineMu.Lock()
	defer d.offlineMu.Unlock()
	if err := d.restore(); err != nil {
		return err
	}
	return d.rebuild(ctx, d.SampleRate(), "")
}

// ensure returns the current offline snapshot, running the offline phase
// first if it has never completed. Rounds bought here are attributed to
// policyName in the sample ledger ("" for explicit refreshes).
func (d *Dance) ensure(ctx context.Context, policyName string) (snapshot, error) {
	d.mu.Lock()
	if d.graph != nil {
		snap := snapshot{rate: d.rate, graph: d.graph, searcher: d.searcher}
		d.mu.Unlock()
		return snap, nil
	}
	d.mu.Unlock()

	d.offlineMu.Lock()
	defer d.offlineMu.Unlock()
	// Double-check: another request may have finished offline while this
	// one waited on offlineMu.
	d.mu.Lock()
	if d.graph != nil {
		snap := snapshot{rate: d.rate, graph: d.graph, searcher: d.searcher}
		d.mu.Unlock()
		return snap, nil
	}
	d.mu.Unlock()
	if err := d.restore(); err != nil {
		return snapshot{}, err
	}
	d.mu.Lock()
	rate := d.rate
	d.mu.Unlock()
	if err := d.rebuild(ctx, rate, policyName); err != nil {
		return snapshot{}, err
	}
	d.mu.Lock()
	snap := snapshot{rate: d.rate, graph: d.graph, searcher: d.searcher}
	d.mu.Unlock()
	return snap, nil
}

// escalate grows the sample rate past seenRate and re-runs the offline
// phase. It reports whether the caller should retry its search: false means
// the rate was already at 1 (nothing more to buy). When a concurrent
// request already escalated past seenRate, escalate skips the duplicate
// rebuild and the caller retries against the fresher graph.
func (d *Dance) escalate(ctx context.Context, seenRate float64, policyName string) (retry bool, err error) {
	d.offlineMu.Lock()
	defer d.offlineMu.Unlock()
	d.mu.Lock()
	cur := d.rate
	d.mu.Unlock()
	if cur != seenRate {
		return true, nil // someone else escalated while we searched
	}
	if cur >= 1 {
		return false, nil // cannot sample more than everything
	}
	next := cur * d.cfg.RateGrowth
	if next > 1 {
		next = 1
	}
	if err := d.rebuild(ctx, next, policyName); err != nil {
		return false, err
	}
	return true, nil
}

// fetchOutcome is one dataset's purchase result within a rebuild round.
type fetchOutcome struct {
	joinAttr string
	full     *relation.Table // complete sample bought (nil when extending)
	delta    *relation.Table // delta bought (nil when full or no-op)
	fds      []fd.FD
	fullCost float64
	delta0   bool // delta path taken with nothing to buy (rates equal)
	cost     float64
}

// rebuild runs one offline round at the given rate and commits the
// resulting graph. Instead of re-buying complete samples, datasets already
// held by the sample store are topped up with SampleDelta purchases — only
// the rows with sampling unit in (oldRate, rate] — and merged copy-on-write
// into the versioned store; the join graph and a searcher with fresh caches
// are then built from the merged state. The caller must hold offlineMu (not
// mu). Rounds that spend money are stamped with policyName.
func (d *Dance) rebuild(ctx context.Context, rate float64, policyName string) error {
	d.mu.Lock()
	srcs := append([]source(nil), d.sources...)
	d.mu.Unlock()

	catalog, err := d.market.Catalog(ctx)
	if err != nil {
		return fmt.Errorf("dance: catalog: %w", err)
	}
	if len(catalog) == 0 {
		return fmt.Errorf("dance: marketplace catalog is empty")
	}
	if rate > 1 {
		rate = 1
	}
	prev := d.store.Snapshot()

	// Fetch each dataset's sample (full or delta) and FDs concurrently —
	// pure I/O fan-out when the marketplace is remote — with bounded
	// workers and first-error (or cancellation) early exit. Indexed result
	// slots keep instance numbering and the summed sample cost
	// deterministic. Costs are recorded per slot so that even on a partial
	// failure SampleCost reflects every purchase the marketplace actually
	// charged for.
	outcomes := make([]fetchOutcome, len(catalog))
	err = parallel.ForEach(ctx, len(catalog), d.cfg.Workers, func(i int) error {
		info := catalog[i]
		out := &outcomes[i]
		out.joinAttr = policy.PrimaryJoinAttr(info, catalog)
		held := prev.Dataset(info.Name)
		// A held dataset can be extended only when the sampling run is the
		// same one: equal join attributes and seed, rate not shrinking —
		// and the listing itself unchanged as far as we can tell. Listings
		// are assumed immutable, but a replaced listing with a different
		// cardinality is detectable for free, and merging a delta of the
		// new data onto a sample of the old would corrupt the store.
		extendable := held != nil && held.Seed == d.cfg.SampleSeed &&
			len(held.JoinAttrs) == 1 && held.JoinAttrs[0] == out.joinAttr &&
			held.Rate <= rate && held.FullRows == info.Rows
		switch {
		case extendable && held.Rate == rate:
			out.delta0 = true // refresh at the same rate: nothing to buy
		case extendable:
			delta, cost, err := d.market.SampleDelta(ctx, info.Name, held.JoinAttrs, held.Rate, rate, d.cfg.SampleSeed)
			if err != nil {
				return fmt.Errorf("dance: delta sampling %s: %w", info.Name, err)
			}
			out.delta, out.cost = delta, cost
		default:
			sample, cost, err := d.market.Sample(ctx, info.Name, []string{out.joinAttr}, rate, d.cfg.SampleSeed)
			if err != nil {
				return fmt.Errorf("dance: sampling %s: %w", info.Name, err)
			}
			out.full, out.cost, out.fullCost = sample, cost, cost
		}
		fds, err := d.market.DatasetFDs(ctx, info.Name)
		if err != nil {
			return fmt.Errorf("dance: FDs of %s: %w", info.Name, err)
		}
		out.fds = fds
		return nil
	})
	spent, fullSpent := 0.0, 0.0
	for _, out := range outcomes {
		spent += out.cost
		fullSpent += out.fullCost
	}
	recordSpend := func() {
		d.mu.Lock()
		d.sampleCost += spent
		if spent > 0 {
			d.rounds = append(d.rounds, SampleRound{
				FromRate: prev.Rate, ToRate: rate,
				FullCost: fullSpent, DeltaCost: spent - fullSpent,
				Policy: policyName,
			})
		}
		d.mu.Unlock()
	}
	if err != nil {
		recordSpend()
		return err
	}

	// Merge the purchases into the versioned store. Datasets with empty
	// deltas keep their version, so persistRound does not re-journal them.
	keep := make(map[string]bool, len(catalog))
	for i, info := range catalog {
		keep[info.Name] = true
		out := outcomes[i]
		switch {
		case out.full != nil:
			d.store.Replace(info.Name, out.full, []string{out.joinAttr}, d.cfg.SampleSeed, rate, info.Rows)
		default:
			delta := out.delta
			if out.delta0 {
				delta = relation.NewTable(info.Name, prev.Dataset(info.Name).Cols.Schema())
			}
			if _, err := d.store.Extend(info.Name, delta, rate, info.Rows); err != nil {
				recordSpend()
				return fmt.Errorf("dance: %w", err)
			}
		}
	}
	d.store.Retain(keep)
	d.store.CommitRate(rate)

	// FDs: published ones win; discovery runs on the *merged* sample when a
	// dataset publishes none — but only when this round actually changed
	// the dataset's rows. Re-discovering over unchanged rows is
	// deterministic busywork that would make same-rate refreshes (and
	// empty-delta escalations) pay a combinatorial AFD search for nothing.
	// Version bumps only when the resulting set changed.
	snap := d.store.Snapshot()
	if err := parallel.ForEach(ctx, len(catalog), d.cfg.Workers, func(i int) error {
		info := catalog[i]
		out := outcomes[i]
		fds := out.fds
		if len(fds) == 0 && d.cfg.DiscoverFDs {
			rowsChanged := out.full != nil || (out.delta != nil && out.delta.NumRows() > 0)
			// held.FDs non-nil means a previous round already resolved the
			// FDs (discovery may legitimately have found none) — reuse it
			// whenever this round didn't change the rows.
			if held := prev.Dataset(info.Name); held != nil && !rowsChanged && held.FDs != nil {
				fds = held.FDs
			} else {
				var err error
				if fds, err = fd.Discover(snap.Dataset(info.Name).Cols, d.cfg.FDOptions); err != nil {
					return fmt.Errorf("dance: FD discovery on %s: %w", info.Name, err)
				}
			}
		}
		return d.store.SetFDs(info.Name, fds)
	}); err != nil {
		recordSpend()
		return err
	}
	snap = d.store.Snapshot()

	var instances []*joingraph.Instance
	for _, s := range srcs {
		instances = append(instances, &joingraph.Instance{
			Name:     s.cols.Name,
			Columnar: s.cols, // owned data needs no sampling
			FullRows: s.cols.NumRows(),
			FDs:      s.fds,
			Owned:    true,
		})
	}
	for _, info := range catalog {
		ds := snap.Dataset(info.Name)
		instances = append(instances, &joingraph.Instance{
			Name:     ds.Name,
			Columnar: ds.Cols,
			FullRows: ds.FullRows,
			FDs:      ds.FDs,
		})
	}
	g, err := joingraph.Build(instances, joingraph.Config{
		MaxJoinAttrs: d.cfg.MaxJoinAttrs,
		Quoter:       d.market,
	})
	if err != nil {
		recordSpend()
		return fmt.Errorf("dance: join graph: %w", err)
	}
	recordSpend()
	// Journal the round before publishing it: a persist failure leaves the
	// in-memory store merged (so a retry re-persists without re-buying) but
	// never lets requests run ahead of what a crash would recover.
	if err := d.persistRound(snap, rate); err != nil {
		return err
	}
	d.mu.Lock()
	d.rate = rate
	d.graph = g
	d.searcher = search.NewSearcher(g)
	d.mu.Unlock()
	return nil
}

// Escalate grows the sampling rate by RateGrowth (capped at 1) and re-runs
// the offline phase incrementally, buying only each dataset's sample delta.
// It reports whether anything was escalated: false means the rate already
// reached 1. Long-lived sessions use it to cheapen future acquisitions
// without waiting for an infeasible search to trigger the refresh loop.
func (d *Dance) Escalate(ctx context.Context) (bool, error) {
	if _, err := d.ensure(ctx, ""); err != nil {
		return false, err
	}
	return d.escalate(ctx, d.SampleRate(), "")
}

// Plan is DANCE's recommendation: the projection queries to purchase, the
// target graph they came from, and the sample-estimated metrics.
type Plan struct {
	Queries []pricing.Query
	TG      *joingraph.TargetGraph
	Est     search.Metrics
	// Evals counts the full metric evaluations the producing search spent.
	Evals int
	// Request echoes the acquisition request the plan answers, with
	// Request.Policy normalized to the policy that produced the plan.
	Request search.Request
}

// policyHost adapts the middleware into the policy.Host capability
// surface: policies get consistent snapshots, serialized delta-billed
// escalation, and a single spend ledger, with every round they trigger
// attributed to their name.
type policyHost struct {
	d    *Dance
	name string
}

func (h policyHost) Snapshot(ctx context.Context) (policy.Snapshot, error) {
	snap, err := h.d.ensure(ctx, h.name)
	if err != nil {
		return policy.Snapshot{}, err
	}
	return policy.Snapshot{Rate: snap.rate, Searcher: snap.searcher}, nil
}

func (h policyHost) Escalate(ctx context.Context, seenRate float64) (bool, error) {
	return h.d.escalate(ctx, seenRate, h.name)
}

func (h policyHost) Market() marketplace.Market { return h.d.market }

func (h policyHost) Sources() []policy.Source {
	h.d.mu.Lock()
	defer h.d.mu.Unlock()
	out := make([]policy.Source, len(h.d.sources))
	for i, s := range h.d.sources {
		out[i] = policy.Source{Columnar: s.cols, FDs: s.fds}
	}
	return out
}

func (h policyHost) Limits() policy.Limits {
	return policy.Limits{
		MaxSampleRounds: h.d.cfg.MaxSampleRounds,
		RateGrowth:      h.d.cfg.RateGrowth,
		SampleRate:      h.d.cfg.SampleRate,
		SampleSeed:      h.d.cfg.SampleSeed,
		Workers:         h.d.cfg.Workers,
		MaxJoinAttrs:    h.d.cfg.MaxJoinAttrs,
	}
}

func (h policyHost) RecordSpend(r policy.SpendRound) {
	h.d.mu.Lock()
	defer h.d.mu.Unlock()
	h.d.sampleCost += r.FullCost + r.DeltaCost
	h.d.rounds = append(h.d.rounds, SampleRound{
		FromRate: r.FromRate, ToRate: r.ToRate,
		FullCost: r.FullCost, DeltaCost: r.DeltaCost,
		Policy: h.name,
	})
}

// resolvePolicy picks the request's policy (request name wins over the
// configured default) and merges the parameter maps, request keys last.
func (d *Dance) resolvePolicy(req search.Request) (policy.Policy, map[string]float64, error) {
	name := req.Policy
	if name == "" {
		name = d.cfg.Policy
	}
	p, err := policy.Get(name)
	if err != nil {
		return nil, nil, err
	}
	var params map[string]float64
	if len(d.cfg.PolicyParams) > 0 || len(req.PolicyParams) > 0 {
		params = make(map[string]float64, len(d.cfg.PolicyParams)+len(req.PolicyParams))
		for k, v := range d.cfg.PolicyParams {
			params[k] = v
		}
		for k, v := range req.PolicyParams {
			params[k] = v
		}
	}
	return p, params, nil
}

// Policies lists the registered acquisition policies (sorted names).
func Policies() []string { return policy.Names() }

// Acquire runs the online phase under the request's acquisition policy
// (Request.Policy, falling back to Config.Policy, falling back to the
// paper's own "dance" search): the policy searches the offline state,
// decides sample-rate escalation (up to MaxSampleRounds) and may buy its
// own pilot samples, every purchase landing in the middleware ledger.
// Cancelling ctx stops the search mid-chain and aborts in-flight
// marketplace calls.
func (d *Dance) Acquire(ctx context.Context, req search.Request) (*Plan, error) {
	if req.Workers == 0 {
		req.Workers = d.cfg.Workers
	}
	p, params, err := d.resolvePolicy(req)
	if err != nil {
		return nil, err
	}
	req.Policy = p.Name()
	ranked, err := p.Acquire(ctx, policyHost{d: d, name: p.Name()}, policy.Request{Request: req, Params: params})
	if err != nil {
		return nil, err
	}
	if len(ranked) == 0 || ranked[0].Result == nil {
		return nil, fmt.Errorf("dance: policy %s returned no plan: %w", p.Name(), search.ErrInfeasible)
	}
	return planFromResult(ranked[0].Result, req), nil
}

// RankedPlan is one of several scored acquisition options (the paper's
// future-work top-k recommendation mode).
type RankedPlan struct {
	Plan  *Plan
	Score float64
}

// AcquireTopK returns up to k scored acquisition options instead of the
// single correlation-best plan, ranked by the combined score of
// correlation, quality, join informativeness and price. Policy selection,
// sample-rate escalation and cancellation apply as in Acquire.
func (d *Dance) AcquireTopK(ctx context.Context, req search.Request, k int, weights search.ScoreWeights) ([]RankedPlan, error) {
	if req.Workers == 0 {
		req.Workers = d.cfg.Workers
	}
	if k <= 0 {
		k = 3
	}
	p, params, err := d.resolvePolicy(req)
	if err != nil {
		return nil, err
	}
	req.Policy = p.Name()
	ranked, err := p.Acquire(ctx, policyHost{d: d, name: p.Name()},
		policy.Request{Request: req, K: k, Weights: weights, Params: params})
	if err != nil {
		return nil, err
	}
	out := make([]RankedPlan, len(ranked))
	for i, r := range ranked {
		out[i] = RankedPlan{Plan: planFromResult(r.Result, req), Score: r.Score}
	}
	return out, nil
}

// planFromResult materializes the purchase queries of a search result. It
// resolves instance names through the result's own graph, so plans stay
// consistent with the snapshot that produced them even if the middleware
// has re-sampled since.
func planFromResult(res *search.Result, req search.Request) *Plan {
	purchase := res.TG.Purchase()
	idxs := make([]int, 0, len(purchase))
	for v := range purchase {
		idxs = append(idxs, v)
	}
	sort.Ints(idxs)
	plan := &Plan{TG: res.TG, Est: res.Est, Evals: res.Evals, Request: req}
	for _, v := range idxs {
		plan.Queries = append(plan.Queries, pricing.Query{
			Instance: res.TG.G.Instances[v].Name,
			Attrs:    purchase[v],
		})
	}
	return plan
}

// Purchase is the outcome of executing a plan against the marketplace.
type Purchase struct {
	// Tables are the bought projections, in query order.
	Tables []*relation.Table
	// Joined is the equi-join of owned sources and purchases along the
	// plan's target graph: a join path of row ids over their encodings, no
	// column gathered (ToTable decodes it to rows; see search.Realize for
	// which columns stay raw floats).
	Joined *relation.Columnar
	// TotalPrice is the sum actually charged by the marketplace.
	TotalPrice float64
	// Realized are the metrics measured on the purchased (full) data:
	// the real correlation and quality, not the sample estimates.
	Realized search.Metrics
}

// JoinStep is one hop of a plan's join path, by table name: the durable form
// of a joingraph.JoinHop, resolvable against whatever tables an execution
// actually bought.
type JoinStep struct {
	Table string
	On    []string
}

// PlanRecord is the flattened, self-contained form of a Plan: everything
// ExecuteRecord needs, reduced to plain values. Service layers journal plan
// records (via persist.Store) and can execute them after a restart, when the
// in-memory target graph that produced the plan is gone.
type PlanRecord struct {
	Queries []pricing.Query
	Steps   []JoinStep
	Weight  float64
	FDs     []fd.FD
	Est     search.Metrics
	// Evals counts the producing search's metric evaluations.
	Evals   int
	Request search.Request
}

// Record flattens the plan's target graph into a PlanRecord.
func (p *Plan) Record() (*PlanRecord, error) {
	if p == nil || p.TG == nil {
		return nil, fmt.Errorf("dance: nil plan")
	}
	hops, err := p.TG.JoinPlan()
	if err != nil {
		return nil, err
	}
	rec := &PlanRecord{
		Queries: append([]pricing.Query(nil), p.Queries...),
		Weight:  p.TG.Weight(),
		FDs:     p.TG.FDs(),
		Est:     p.Est,
		Evals:   p.Evals,
		Request: p.Request,
	}
	for _, h := range hops {
		rec.Steps = append(rec.Steps, JoinStep{Table: p.TG.G.Instances[h.Vertex].Name, On: h.On})
	}
	return rec, nil
}

// Execute buys every query of the plan and reassembles the join.
//
// On error the returned *Purchase is still non-nil once any projection was
// bought: its Tables and TotalPrice record what the marketplace actually
// charged before the failure, so callers (ledgers, billing) can account
// for partial spend. Only a nil or never-started plan returns a nil
// Purchase.
func (d *Dance) Execute(ctx context.Context, plan *Plan) (*Purchase, error) {
	rec, err := plan.Record()
	if err != nil {
		return nil, err
	}
	return d.ExecuteRecord(ctx, rec)
}

// ExecuteRecord buys every query of a flattened plan record and reassembles
// the join: the restart-safe sibling of Execute. A record loaded from a
// persist journal executes exactly like the freshly-searched plan it was
// flattened from. Partial-spend error semantics match Execute.
func (d *Dance) ExecuteRecord(ctx context.Context, rec *PlanRecord) (*Purchase, error) {
	if rec == nil || len(rec.Steps) == 0 {
		return nil, fmt.Errorf("dance: nil plan")
	}
	bought := map[string]*relation.Table{}
	p := &Purchase{}
	for _, q := range rec.Queries {
		t, price, err := d.market.ExecuteProjection(ctx, q)
		if err != nil {
			return p, fmt.Errorf("dance: executing %s: %w", q, err)
		}
		p.Tables = append(p.Tables, t)
		p.TotalPrice += price
		bought[q.Instance] = t
	}
	// Owned sources join with their full local data, encoded once at
	// registration; bought projections are encoded for this execute only.
	owned := map[string]*relation.Columnar{}
	d.mu.Lock()
	for _, s := range d.sources {
		owned[s.cols.Name] = s.cols
	}
	d.mu.Unlock()
	steps := make([]search.FullStep, len(rec.Steps))
	for i, st := range rec.Steps {
		steps[i] = search.FullStep{Encoded: owned[st.Table], Table: bought[st.Table], On: st.On}
		if steps[i].Encoded == nil && steps[i].Table == nil {
			return p, fmt.Errorf("dance: plan references %q which was neither bought nor owned", st.Table)
		}
	}
	// Realized metrics on the actual purchase.
	joined, realized, err := search.Realize(steps, rec.Request, rec.FDs)
	if err != nil {
		return p, err
	}
	p.Joined = joined
	p.Realized = realized
	p.Realized.Weight = rec.Weight
	p.Realized.Price = p.TotalPrice
	return p, nil
}
