// Package dance is the public API of DANCE — a Data Acquisition framework
// on oNline data markets for CorrElation analysis — reproducing Li, Sun,
// Dong & Wang, "Cost-efficient Data Acquisition on Online Data Marketplaces
// for Correlation Analysis" (VLDB 2018).
//
// A data shopper holds source attributes AS (optionally in their own table)
// and wants to buy target attributes AT from a marketplace so that the
// correlation CORR(AS, AT) on the joined data is maximized, subject to a
// purchase budget, a data-quality floor, and a join-informativeness cap.
//
// The API is context-first: marketplaces are online services, so every
// marketplace call and every acquisition takes a context.Context whose
// deadline or cancellation aborts in-flight HTTP requests and stops the
// MCMC search mid-chain. Typical use:
//
//	market := dance.NewMarketplace(nil)
//	market.Register(table, fds)              // the seller side
//
//	ctx := context.Background()              // or a deadline/cancel context
//	mw := dance.New(market, dance.Config{SampleRate: 0.3})
//	mw.AddSource(myTable, nil)               // the shopper's own data
//	plan, err := mw.Acquire(ctx, dance.Request{
//	        SourceAttrs: []string{"totalprice"},
//	        TargetAttrs: []string{"rname"},
//	        Budget:      100,
//	})
//	purchase, err := mw.Execute(ctx, plan)   // buys and joins
//
// The middleware is safe for concurrent use: simultaneous Acquire calls
// share the offline sample state, and sample-rate escalation is
// serialized.
//
// The marketplace can be served over HTTP (Handler / NewMarketClient), and
// the middleware itself can be served to remote shoppers with
// AcquireHandler / AcquireClient (see cmd/danced) — the versioned v1 JSON
// API with plan storage, deadlines and a charge ledger.
package dance

import (
	"net/http"

	"github.com/dance-db/dance/internal/core"
	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/infotheory"
	"github.com/dance-db/dance/internal/joingraph"
	"github.com/dance-db/dance/internal/marketplace"
	"github.com/dance-db/dance/internal/persist"
	"github.com/dance-db/dance/internal/pricing"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/search"
	"github.com/dance-db/dance/internal/tpce"
	"github.com/dance-db/dance/internal/tpch"
)

// Relational substrate.
type (
	// Table is an in-memory relation.
	Table = relation.Table
	// Schema describes a table's columns.
	Schema = relation.Schema
	// Column is one attribute of a schema.
	Column = relation.Column
	// Value is a single relational value (string/int/float/NULL).
	Value = relation.Value
	// Kind enumerates value types.
	Kind = relation.Kind
	// PathStep is one hop of a multi-way join.
	PathStep = relation.PathStep
)

// Value kinds.
const (
	KindNull   = relation.KindNull
	KindString = relation.KindString
	KindInt    = relation.KindInt
	KindFloat  = relation.KindFloat
)

// Dependencies and pricing.
type (
	// FD is a functional dependency LHS → RHS.
	FD = fd.FD
	// PricingModel prices projection queries.
	PricingModel = pricing.Model
	// EntropyPricing is the arbitrage-free entropy-based model.
	EntropyPricing = pricing.EntropyModel
	// FlatPricing is the per-attribute baseline model.
	FlatPricing = pricing.FlatModel
	// Query is a SQL projection query π_Attrs(Instance).
	Query = pricing.Query
)

// Marketplace.
type (
	// Market is the full marketplace API DANCE consumes.
	Market = marketplace.Market
	// InMemoryMarket is the reference marketplace implementation.
	InMemoryMarket = marketplace.InMemory
	// MarketClient talks to a remote HTTP marketplace.
	MarketClient = marketplace.Client
	// DatasetInfo is free schema-level listing metadata.
	DatasetInfo = marketplace.DatasetInfo
	// Ledger records marketplace charges.
	Ledger = marketplace.Ledger
)

// Middleware and search.
type (
	// Middleware is the DANCE middleware (offline + online phases).
	Middleware = core.Dance
	// Config controls the middleware.
	Config = core.Config
	// Plan is a recommended acquisition (queries + estimates).
	Plan = core.Plan
	// Purchase is an executed plan.
	Purchase = core.Purchase
	// Request is a data-acquisition request.
	Request = search.Request
	// Metrics bundles correlation, quality, weight and price.
	Metrics = search.Metrics
	// JoinGraph is the two-layer join graph (Sec 4 of the paper).
	JoinGraph = joingraph.Graph
	// ScoreWeights combine the four metrics for top-k ranking.
	ScoreWeights = search.ScoreWeights
	// RankedPlan is one scored acquisition option from AcquireTopK.
	RankedPlan = core.RankedPlan
	// PlanRecord is a plan flattened to plain data: it can be journaled,
	// restored, and executed (ExecuteRecord) without the in-memory join
	// graph that produced it.
	PlanRecord = core.PlanRecord
	// JoinStep is one flattened hop of a PlanRecord's join path.
	JoinStep = core.JoinStep
)

// Durability.
type (
	// PersistStore journals ledger entries, plans, and offline sample state
	// durably; pass one to Config.Persist and ServiceOptions.Persist.
	PersistStore = persist.Store
	// PersistOptions configure OpenPersist.
	PersistOptions = persist.Options
)

// OpenPersist opens (or creates) a durable journal rooted at dir. Pass the
// returned store to both Config.Persist and ServiceOptions.Persist so one
// journal covers sample state, plans, and the service ledger.
func OpenPersist(dir string, opts PersistOptions) (PersistStore, error) {
	return persist.Open(dir, opts)
}

// ErrInfeasible marks acquisition failures caused by the request itself
// (constraints admit no plan, or attributes nobody sells) rather than by
// the marketplace or infrastructure. Test with errors.Is; the danced
// service maps it to HTTP 422.
var ErrInfeasible = search.ErrInfeasible

// DefaultScoreWeights are the balanced top-k ranking weights.
func DefaultScoreWeights() ScoreWeights { return search.DefaultScoreWeights() }

// NewTable returns an empty table with the given name and schema.
func NewTable(name string, schema *Schema) *Table { return relation.NewTable(name, schema) }

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema { return relation.NewSchema(cols...) }

// Cat declares a categorical column (Shannon-entropy treatment).
func Cat(name string, kind Kind) Column { return relation.Cat(name, kind) }

// Num declares a numerical column (cumulative-entropy treatment).
func Num(name string, kind Kind) Column { return relation.Num(name, kind) }

// StringValue wraps a string.
func StringValue(s string) Value { return relation.StringValue(s) }

// IntValue wraps an int64.
func IntValue(i int64) Value { return relation.IntValue(i) }

// FloatValue wraps a float64.
func FloatValue(f float64) Value { return relation.FloatValue(f) }

// Null returns the NULL value.
func Null() Value { return relation.Null() }

// NewFD builds a functional dependency lhs → rhs.
func NewFD(rhs string, lhs ...string) FD { return fd.New(rhs, lhs...) }

// ParseFD parses "A,B -> C".
func ParseFD(s string) (FD, error) { return fd.Parse(s) }

// NewMarketplace creates an in-memory marketplace. A nil model uses the
// cached entropy-based pricing of the paper's experiments.
func NewMarketplace(model PricingModel) *InMemoryMarket {
	return marketplace.NewInMemory(model)
}

// Handler serves a marketplace over JSON/HTTP.
func Handler(m Market) http.Handler { return marketplace.Handler(m) }

// NewMarketClient connects to a marketplace served by Handler.
func NewMarketClient(baseURL string) *MarketClient { return marketplace.NewClient(baseURL) }

// New creates the DANCE middleware bound to a marketplace.
func New(market Market, cfg Config) *Middleware { return core.New(market, cfg) }

// DefaultEntropyPricing returns the experiments' pricing configuration.
func DefaultEntropyPricing() EntropyPricing { return pricing.DefaultEntropyModel() }

// CachedPricing memoizes a pricing model (tables assumed immutable).
func CachedPricing(m PricingModel) PricingModel { return pricing.Cached(m) }

// Correlation computes CORR(X, Y) of Def 2.5 on a table: Shannon mutual
// information for categorical X, cumulative-entropy correlation for numeric
// X, in bits.
func Correlation(t *Table, x, y []string) (float64, error) {
	return infotheory.Correlation(t, x, y)
}

// JoinInformativeness computes JI(a, b) of Def 2.4 over the full outer join
// on the given attributes; lower is a more informative join.
func JoinInformativeness(a, b *Table, on []string) (float64, error) {
	ca, err := relation.ToColumnarSubset(a, on, nil)
	if err != nil {
		return 0, err
	}
	cb, err := relation.ToColumnarSubset(b, on, nil)
	if err != nil {
		return 0, err
	}
	return infotheory.JoinInformativeness(ca, cb, on)
}

// Quality computes Q of Defs 2.2/2.3: the fraction of rows consistent with
// every applicable FD, encoding t once.
func Quality(t *Table, fds []FD) (float64, error) {
	return fd.QualitySetColumnar(relation.ToColumnar(t), fds, nil)
}

// DiscoverFDs mines approximate FDs (TANE-style) with g3 error ≤ maxErr,
// encoding t once.
func DiscoverFDs(t *Table, maxErr float64, maxLHS int) ([]FD, error) {
	return fd.Discover(relation.ToColumnar(t), fd.DiscoveryOptions{MaxError: maxErr, MaxLHS: maxLHS})
}

// EquiJoin joins two tables on the named shared attributes.
func EquiJoin(a, b *Table, on []string) (*Table, error) { return relation.EquiJoin(a, b, on) }

// JoinPath joins a sequence of tables left to right.
func JoinPath(steps []PathStep) (*Table, error) { return relation.JoinPath(steps) }

// GenerateTPCH returns the scaled TPC-H-like benchmark dataset used by the
// paper's evaluation: tables in canonical order plus declared AFDs per
// table. dirtyFraction < 0 uses the paper's default (0.3 on six tables).
func GenerateTPCH(scale int, seed int64, dirtyFraction float64) ([]*Table, map[string][]FD) {
	cfg := tpch.Config{Scale: scale, Seed: seed, DirtyFraction: 0.3}
	if dirtyFraction >= 0 {
		cfg.DirtyFraction = dirtyFraction
	}
	d := tpch.Generate(cfg)
	return d.Tables, d.FDs
}

// GenerateTPCE returns the scaled 29-table TPC-E-like benchmark dataset
// (paper default dirt: 0.2 on twenty tables).
func GenerateTPCE(scale int, seed int64, dirtyFraction float64) ([]*Table, map[string][]FD) {
	cfg := tpce.Config{Scale: scale, Seed: seed, DirtyFraction: 0.2}
	if dirtyFraction >= 0 {
		cfg.DirtyFraction = dirtyFraction
	}
	d := tpce.Generate(cfg)
	return d.Tables, d.FDs
}
