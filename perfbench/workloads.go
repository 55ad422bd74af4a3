package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"

	dance "github.com/dance-db/dance"
	"github.com/dance-db/dance/internal/experiments"
	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/persist"
	"github.com/dance-db/dance/internal/pricing"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/workload"
)

// scenario is one workload's generated inputs: what the marketplace sells,
// what the shopper owns, how danced is configured, and the request stream.
type scenario struct {
	listings []*relation.Table
	fds      map[string][]fd.FD
	// pricing returns a fresh pricing model, so every cold start begins with
	// a cold price cache.
	pricing  func() pricing.Model
	owned    *relation.Table
	ownedFDs []fd.FD
	cfg      dance.Config
	// remote serves the marketplace with marketplace.Handler on loopback and
	// reaches it through marketplace.Client, so samples cross the wire as
	// CSV.
	remote bool
	// journal, when set, is a pre-built persist journal; every cold start
	// restores danced from a fresh copy of it through an fsync'd FileStore.
	journal string
	// restored is the ledger total already in journal: charges the fresh
	// marketplace of a cold start never billed.
	restored float64
	// request returns op i of the stream with the given search seed.
	request func(i int, searchSeed int64) dance.AcquireRequest
	// seed is the run's seed: it draws the timed ops' search seeds.
	seed int64
	// rho, when positive, is the planted correlation every purchase must
	// realize within experiments.RecoveryEpsilon.
	rho float64
}

// The marketplace data of every workload is generated from dataSeed, so
// that each workload is one fixed dataset (as a benchmark database is) and
// runs differ in their request streams only: the run's seed draws every
// timed op's search seed. Changing the data changes the join structure the
// search explores, which is a different workload rather than run-to-run
// variation.
const dataSeed = 1

// timedOp is op i of the run's timed request stream.
func (sc *scenario) timedOp(i int) dance.AcquireRequest {
	return sc.request(i, sc.seed<<32+int64(i)+1)
}

// Ops outside the timed stream take their search seeds from ranges no
// timed op uses (a timed op's seed is positive), so that no timed request
// shares a fingerprint with one served during set-up; they are the same in
// every run, so set-up does the same work whatever the run's seed.
func (sc *scenario) warmupOp(w int) dance.AcquireRequest  { return sc.request(w, -1-int64(w)) }
func (sc *scenario) journalOp(j int) dance.AcquireRequest { return sc.request(j, -1<<20-int64(j)) }

// workloadDef names a workload and generates its inputs from a seed. dir
// is a scratch directory for generated files.
type workloadDef struct {
	name     string
	why      string
	generate func(ctx context.Context, seed int64, dir string) (*scenario, error)
}

var workloads = []workloadDef{
	{
		name: "resample-search",
		why: "TPC-H Q1-Q3 at scale 15 with eta-resampling under the dance policy, persist off: " +
			"every resampled join is cold, so MCMC evaluation dominates each op; a search gain shows here " +
			"and a persist or transport gain must read as no change",
		generate: genResampleSearch,
	},
	{
		name: "bulk-execute",
		why: "chain:3 with a 50k-row owned base: each execute buys full listings, joins 50k rows and " +
			"measures realized correlation, so the relation layer dominates and a search gain must read as no change",
		generate: genBulkExecute,
	},
	{
		name: "pilot-durable",
		why: "star:4 over a loopback marketd with try-before-you-buy and an fsync'd journal restored " +
			"from 10^4 ledger entries: sampling, CSV transport and journal writes block every op, and set-up is journal replay",
		generate: genPilotDurable,
	},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// Sizes of the generated inputs.
const (
	tpchScale      = 15
	bulkSpec       = "chain:3,rows=50000"
	pilotSpec      = "star:4,rows=2000,keys=2000,fanout=2"
	journalEntries = 10000
	journalOps     = 4
)

func genResampleSearch(_ context.Context, seed int64, _ string) (*scenario, error) {
	tables, fds := dance.GenerateTPCH(tpchScale, dataSeed, -1)
	queries := experiments.TPCHQueries()
	return &scenario{
		listings: tables,
		fds:      fds,
		pricing:  func() pricing.Model { return pricing.Cached(pricing.DefaultEntropyModel()) },
		cfg:      dance.Config{SampleRate: 0.9, SampleSeed: dataSeed, Workers: 1},
		seed:     seed,
		request: func(i int, searchSeed int64) dance.AcquireRequest {
			q := queries[i%len(queries)]
			return dance.AcquireRequest{
				SourceAttrs:  q.SourceAttrs,
				TargetAttrs:  q.TargetAttrs,
				Iterations:   80,
				Eta:          10 * tpchScale,
				ResampleRate: 0.3,
				Seed:         searchSeed,
				Workers:      1,
				Policy:       "dance",
			}
		},
	}, nil
}

// plantedScenario is the shared shape of the synthetic workloads: the
// shopper owns the base listing, buys the rest of the planted path, and the
// budget is pinned to the cheapest correct plan so that every op must
// realize the planted correlation.
func plantedScenario(specStr string, seed int64, rate float64, iterations, eta int, policy string) (*scenario, error) {
	spec, err := workload.ParseSpec(specStr)
	if err != nil {
		return nil, err
	}
	w, err := workload.Generate(spec, dataSeed)
	if err != nil {
		return nil, err
	}
	budget := w.Truth.PlanCostOwned * (1 + experiments.BudgetSlack)
	return &scenario{
		listings: w.Listings[1:],
		fds:      w.FDs,
		pricing:  func() pricing.Model { return workload.PriceModel(spec.PriceFamily) },
		owned:    w.Base(),
		ownedFDs: w.FDs[w.Base().Name],
		cfg:      dance.Config{SampleRate: rate, SampleSeed: dataSeed + 77, Workers: 1},
		seed:     seed,
		request: func(i int, searchSeed int64) dance.AcquireRequest {
			return dance.AcquireRequest{
				SourceAttrs:  []string{w.Truth.X},
				TargetAttrs:  []string{w.Truth.Y},
				Budget:       budget,
				Iterations:   iterations,
				Eta:          eta,
				ResampleRate: 0.2,
				Seed:         searchSeed,
				Workers:      1,
				Policy:       policy,
			}
		},
		rho: w.Truth.Rho,
	}, nil
}

func genBulkExecute(_ context.Context, seed int64, _ string) (*scenario, error) {
	return plantedScenario(bulkSpec, seed, 0.2, 60, 2000, "dance")
}

func genPilotDurable(ctx context.Context, seed int64, dir string) (*scenario, error) {
	sc, err := plantedScenario(pilotSpec, seed, 0.3, 20, 0, "try-before-you-buy")
	if err != nil {
		return nil, err
	}
	sc.remote = true
	if err := sc.buildJournal(ctx, filepath.Join(dir, "journal")); err != nil {
		return nil, fmt.Errorf("building the journal to restore: %w", err)
	}
	return sc, nil
}

// buildJournal writes the journal every cold start restores: a real danced
// session (offline samples, a few acquire/execute ops) whose ledger is then
// extended to journalEntries entries by repeating its own charges, as a
// long-running service's history would.
func (sc *scenario) buildJournal(ctx context.Context, dir string) error {
	sys, err := sc.bringUp(ctx, nil, dir, false)
	if err != nil {
		return err
	}
	for i := 0; i < journalOps; i++ {
		if res := sys.runOp(ctx, nil, 0, sc.journalOp(i)); res.err != nil {
			sys.close()
			return res.err
		}
	}
	if err := sys.close(); err != nil {
		return err
	}
	store, err := persist.Open(dir, persist.Options{NoSync: true})
	if err != nil {
		return err
	}
	st, err := store.Load()
	if err != nil {
		store.Close()
		return err
	}
	total := 0.0
	for _, e := range st.Ledger {
		total += e.Amount
	}
	for i := 0; len(st.Ledger) > 0 && len(st.Ledger)+i < journalEntries; i++ {
		e := st.Ledger[i%len(st.Ledger)]
		if err := store.AppendLedger(e); err != nil {
			store.Close()
			return err
		}
		total += e.Amount
	}
	if err := store.Close(); err != nil {
		return err
	}
	sc.journal, sc.restored = dir, total
	return nil
}

// copyJournal copies the journal directory tree src to dst.
func copyJournal(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// checkPurchase is the per-op output check beyond a successful execute.
func (sc *scenario) checkPurchase(p *dance.PurchaseInfo) error {
	if sc.rho <= 0 {
		return nil
	}
	got := p.Realized.Correlation
	if math.Abs(got-sc.rho) > experiments.RecoveryEpsilon*math.Max(1, sc.rho) {
		return fmt.Errorf("realized correlation %.4f, planted %.4f", got, sc.rho)
	}
	return nil
}
