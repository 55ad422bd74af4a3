// Package marketplace implements the online data marketplace DANCE buys
// from: a catalog of relational instances with schema-level metadata (free),
// correlated-sample service (paid, discounted by sampling rate), exact price
// quotes for projection queries (free, query-based pricing), and projection
// query execution (paid). A JSON-over-HTTP server and client make the
// marketplace genuinely "online"; DANCE works identically against the
// in-memory and remote implementations.
package marketplace

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/pricing"
	"github.com/dance-db/dance/internal/relation"
)

// Typed sentinel errors, so callers — the HTTP handler above all — can map
// failures to the right wire status (404 vs 400) instead of a generic 500.
// Test with errors.Is; implementations wrap them with context.
var (
	// ErrUnknownDataset marks requests naming a dataset the marketplace
	// does not list.
	ErrUnknownDataset = errors.New("unknown dataset")
	// ErrBadRate marks sampling requests whose rate (or rate range) is
	// outside the valid domain.
	ErrBadRate = errors.New("sample rate out of range")
	// ErrBadProjection marks projection requests that name an attribute
	// more than once.
	ErrBadProjection = errors.New("repeated projection attribute")
)

// DatasetInfo is the free schema-level description of a listing (what Azure
// Marketplace-style platforms expose for browsing).
type DatasetInfo struct {
	Name  string
	Rows  int
	Attrs []relation.Column
}

// Market is the full marketplace API used by DANCE. Every call takes a
// context: marketplaces are *online* services, so callers own deadlines and
// cancellation. Implementations must return promptly (with an error wrapping
// ctx.Err()) once the context is done.
type Market interface {
	// Catalog lists all datasets with schema-level info. Free.
	Catalog(ctx context.Context) ([]DatasetInfo, error)
	// DatasetFDs returns the published AFDs of a dataset. Free metadata.
	DatasetFDs(ctx context.Context, name string) ([]fd.FD, error)
	// QuoteProjection prices π_attrs(dataset) without purchasing. Free.
	QuoteProjection(ctx context.Context, name string, attrs []string) (float64, error)
	// Sample returns a correlated sample of the dataset on the given join
	// attributes at the given rate and hash seed, charging
	// rate × full price. All attributes are included (DANCE estimates
	// arbitrary correlations on samples). Samples are delivered in the
	// canonical hash-unit order (see sampleOrder in index.go), so a
	// lower-rate sample is a strict prefix of any higher-rate one.
	Sample(ctx context.Context, name string, joinAttrs []string, rate float64, seed uint64) (*relation.Table, float64, error)
	// SampleDelta returns only the rows whose sampling unit falls in
	// (fromRate, toRate] — the rows a holder of the rate-fromRate sample is
	// missing from the rate-toRate sample — charging the price difference
	// SampleDiscount(full, toRate) − SampleDiscount(full, fromRate).
	// Appending the delta to the rate-fromRate sample reproduces the fresh
	// rate-toRate sample exactly. Requires 0 ≤ fromRate < toRate ≤ 1
	// (ErrBadRate otherwise); fromRate 0 degenerates to a full Sample at
	// toRate.
	SampleDelta(ctx context.Context, name string, joinAttrs []string, fromRate, toRate float64, seed uint64) (*relation.Table, float64, error)
	// ExecuteProjection sells π_attrs(dataset), charging the quoted price.
	ExecuteProjection(ctx context.Context, q pricing.Query) (*relation.Table, float64, error)
}

// Listing is one dataset offered for sale.
type Listing struct {
	Table *relation.Table
	FDs   []fd.FD
	// index holds the listing's sample orders; Register starts it empty,
	// so re-registering a name drops every order of the old table.
	index *sellerIndex
}

// sample cuts the (from, to] rows of the listing's canonical sample order
// under (joinAttrs, seed) from the seller index, building the order on
// first use.
func (l *Listing) sample(joinAttrs []string, from, to float64, seed uint64) (*relation.Table, error) {
	o, err := l.index.get(l.Table, joinAttrs, seed)
	if err != nil {
		return nil, err
	}
	return o.cut(l.Table, from, to), nil
}

// LedgerEntry records one charge.
type LedgerEntry struct {
	Kind    string // "sample" or "query"
	Dataset string
	Attrs   []string
	Amount  float64
}

// Ledger accumulates charges; safe for concurrent use.
type Ledger struct {
	mu      sync.Mutex    // lockorder: leaf
	entries []LedgerEntry // guarded by mu
}

// Add appends a charge.
func (l *Ledger) Add(e LedgerEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, e)
}

// Total returns the sum of all charges.
func (l *Ledger) Total() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := 0.0
	for _, e := range l.entries {
		t += e.Amount
	}
	return t
}

// TotalByKind returns the summed charges for one kind.
func (l *Ledger) TotalByKind(kind string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := 0.0
	for _, e := range l.entries {
		if e.Kind == kind {
			t += e.Amount
		}
	}
	return t
}

// Entries returns a copy of all charges.
func (l *Ledger) Entries() []LedgerEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]LedgerEntry(nil), l.entries...)
}

// InMemory is the reference marketplace implementation.
type InMemory struct {
	mu       sync.RWMutex
	listings map[string]*Listing // guarded by mu
	order    []string            // guarded by mu
	model    pricing.Model
	ledger   *Ledger
}

var _ Market = (*InMemory)(nil)

// NewInMemory creates a marketplace priced by model (nil = cached default
// entropy model).
func NewInMemory(model pricing.Model) *InMemory {
	if model == nil {
		model = pricing.Cached(pricing.DefaultEntropyModel())
	}
	return &InMemory{
		listings: make(map[string]*Listing),
		model:    model,
		ledger:   &Ledger{},
	}
}

// Register lists a dataset for sale. Registering the same name twice
// replaces the listing.
func (m *InMemory) Register(table *relation.Table, fds []fd.FD) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, exists := m.listings[table.Name]; !exists {
		m.order = append(m.order, table.Name)
	}
	m.listings[table.Name] = &Listing{Table: table, FDs: fds, index: &sellerIndex{}}
}

// Ledger exposes the marketplace's billing record.
func (m *InMemory) Ledger() *Ledger { return m.ledger }

func (m *InMemory) listing(name string) (*Listing, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	l, ok := m.listings[name]
	if !ok {
		return nil, fmt.Errorf("marketplace: no dataset %q: %w", name, ErrUnknownDataset)
	}
	return l, nil
}

// Catalog implements Market.
func (m *InMemory) Catalog(ctx context.Context) ([]DatasetInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]DatasetInfo, 0, len(m.order))
	for _, name := range m.order {
		l := m.listings[name]
		out = append(out, DatasetInfo{
			Name:  name,
			Rows:  l.Table.NumRows(),
			Attrs: l.Table.Schema.Columns(),
		})
	}
	return out, nil
}

// DatasetFDs implements Market.
func (m *InMemory) DatasetFDs(ctx context.Context, name string) ([]fd.FD, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	l, err := m.listing(name)
	if err != nil {
		return nil, err
	}
	return append([]fd.FD(nil), l.FDs...), nil
}

// QuoteProjection implements Market.
func (m *InMemory) QuoteProjection(ctx context.Context, name string, attrs []string) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	l, err := m.listing(name)
	if err != nil {
		return 0, err
	}
	if err := checkProjection(name, attrs); err != nil {
		return 0, err
	}
	return m.model.PriceProjection(l.Table, attrs)
}

// checkProjection rejects a projection that names an attribute twice,
// before it is priced: price families disagree on repeats (the entropy
// model refuses them, a per-attribute model would bill every copy), and no
// projected schema can hold both copies.
func checkProjection(name string, attrs []string) error {
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if seen[a] {
			return fmt.Errorf("marketplace: attribute %q twice in projection of %s: %w", a, name, ErrBadProjection)
		}
		seen[a] = true
	}
	return nil
}

// Sample implements Market. The rate is validated before the listing
// lookup, so a request that is wrong in both ways reports the caller's
// input error (400 on the wire) rather than the lookup failure. The
// comparison is written so that NaN fails it: a NaN rate would otherwise
// bill NaN and poison the ledger total for good.
func (m *InMemory) Sample(ctx context.Context, name string, joinAttrs []string, rate float64, seed uint64) (*relation.Table, float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if !(rate > 0 && rate <= 1) {
		return nil, 0, fmt.Errorf("marketplace: sample rate %v out of (0, 1]: %w", rate, ErrBadRate)
	}
	l, err := m.listing(name)
	if err != nil {
		return nil, 0, err
	}
	s, err := l.sample(joinAttrs, 0, rate, seed)
	if err != nil {
		return nil, 0, err
	}
	full, err := m.model.PriceProjection(l.Table, l.Table.Schema.Names())
	if err != nil {
		return nil, 0, err
	}
	price := pricing.SampleDiscount(full, rate)
	m.ledger.Add(LedgerEntry{Kind: "sample", Dataset: name, Attrs: joinAttrs, Amount: price})
	return s, price, nil
}

// SampleDelta implements Market: the incremental top-up between two sample
// rates, billed at the price difference. The escalation loop of the
// middleware buys these instead of re-buying complete samples every round.
func (m *InMemory) SampleDelta(ctx context.Context, name string, joinAttrs []string, fromRate, toRate float64, seed uint64) (*relation.Table, float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if !validDelta(fromRate, toRate) {
		return nil, 0, fmt.Errorf("marketplace: sample delta rates (%v, %v] not within 0 ≤ from < to ≤ 1: %w",
			fromRate, toRate, ErrBadRate)
	}
	l, err := m.listing(name)
	if err != nil {
		return nil, 0, err
	}
	s, err := l.sample(joinAttrs, fromRate, toRate, seed)
	if err != nil {
		return nil, 0, err
	}
	full, err := m.model.PriceProjection(l.Table, l.Table.Schema.Names())
	if err != nil {
		return nil, 0, err
	}
	price := pricing.SampleDiscount(full, toRate) - pricing.SampleDiscount(full, fromRate)
	m.ledger.Add(LedgerEntry{Kind: "sample_delta", Dataset: name, Attrs: joinAttrs, Amount: price})
	return s, price, nil
}

// validDelta reports 0 ≤ from < to ≤ 1; NaN on either side fails it.
func validDelta(from, to float64) bool {
	return from >= 0 && from < to && to <= 1
}

// ExecuteProjection implements Market.
func (m *InMemory) ExecuteProjection(ctx context.Context, q pricing.Query) (*relation.Table, float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	l, err := m.listing(q.Instance)
	if err != nil {
		return nil, 0, err
	}
	if err := checkProjection(q.Instance, q.Attrs); err != nil {
		return nil, 0, err
	}
	attrs := append([]string(nil), q.Attrs...)
	sort.Strings(attrs)
	price, err := m.model.PriceProjection(l.Table, attrs)
	if err != nil {
		return nil, 0, err
	}
	proj, err := l.Table.Project(attrs...)
	if err != nil {
		return nil, 0, err
	}
	m.ledger.Add(LedgerEntry{Kind: "query", Dataset: q.Instance, Attrs: attrs, Amount: price})
	return proj, price, nil
}
