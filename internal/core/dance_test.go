package core

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/marketplace"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/search"
)

var bg = context.Background()

// buildScenario populates a marketplace with a correlated chain
// mid1(key1,key2) — mid2(key2,key3) — tgt(key3,yval) and returns the
// shopper's owned source table src(key1, xval).
func buildScenario(seed int64) (*marketplace.InMemory, *relation.Table) {
	rng := rand.New(rand.NewSource(seed))
	const n = 400

	src := relation.NewTable("src", relation.NewSchema(
		relation.Cat("key1", relation.KindInt),
		relation.Num("xval", relation.KindFloat),
	))
	mid1 := relation.NewTable("mid1", relation.NewSchema(
		relation.Cat("key1", relation.KindInt),
		relation.Cat("key2", relation.KindInt),
	))
	mid2 := relation.NewTable("mid2", relation.NewSchema(
		relation.Cat("key2", relation.KindInt),
		relation.Cat("key3", relation.KindInt),
	))
	tgt := relation.NewTable("tgt", relation.NewSchema(
		relation.Cat("key3", relation.KindInt),
		relation.Cat("yval", relation.KindString),
	))
	for i := 0; i < n; i++ {
		k1 := int64(rng.Intn(12))
		src.AppendValues(relation.IntValue(k1), relation.FloatValue(float64(k1)*10+rng.Float64()))
	}
	for k1 := int64(0); k1 < 12; k1++ {
		for rep := 0; rep < 5; rep++ {
			mid1.AppendValues(relation.IntValue(k1), relation.IntValue(k1%6))
		}
	}
	for k2 := int64(0); k2 < 6; k2++ {
		for rep := 0; rep < 4; rep++ {
			mid2.AppendValues(relation.IntValue(k2), relation.IntValue(k2%3))
		}
	}
	for k3 := int64(0); k3 < 3; k3++ {
		for rep := 0; rep < 6; rep++ {
			tgt.AppendValues(relation.IntValue(k3), relation.StringValue(string(rune('a'+k3))))
		}
	}
	m := marketplace.NewInMemory(nil)
	m.Register(mid1, []fd.FD{fd.New("key2", "key1")})
	m.Register(mid2, []fd.FD{fd.New("key3", "key2")})
	m.Register(tgt, []fd.FD{fd.New("yval", "key3")})
	return m, src
}

// sampleChargesInCatalogOrder sums the ledger's sample and delta charges
// the way Dance sums SampleCost: each round's charges in catalog order, then
// the rounds in order. Offline samples datasets concurrently, so the ledger
// holds a round's charges in arrival order; float addition is not
// associative, so only this association can be compared with SampleCost
// exactly. Rounds run one after another, so a dataset's r-th charge belongs
// to round r — exact for fixtures that charge every dataset in every round.
func sampleChargesInCatalogOrder(t *testing.T, m *marketplace.InMemory) float64 {
	t.Helper()
	catalog, err := m.Catalog(bg)
	if err != nil {
		t.Fatal(err)
	}
	byDataset := map[string][]float64{}
	rounds := 0
	for _, e := range m.Ledger().Entries() {
		if e.Kind == "sample" || e.Kind == "sample_delta" {
			byDataset[e.Dataset] = append(byDataset[e.Dataset], e.Amount)
			rounds = max(rounds, len(byDataset[e.Dataset]))
		}
	}
	total := 0.0
	for r := 0; r < rounds; r++ {
		round := 0.0
		for _, info := range catalog {
			if charges := byDataset[info.Name]; r < len(charges) {
				round += charges[r]
			}
		}
		total += round
	}
	return total
}

func acquisitionRequest() search.Request {
	return search.Request{
		SourceAttrs: []string{"xval"},
		TargetAttrs: []string{"yval"},
		Budget:      1e9,
		Alpha:       10,
		Beta:        0,
		Iterations:  40,
		Seed:        1,
	}
}

func TestOfflineBuildsGraphAndPaysForSamples(t *testing.T) {
	m, src := buildScenario(1)
	d := New(m, Config{SampleRate: 0.8, SampleSeed: 3})
	d.AddSource(src, nil)
	if err := d.Offline(bg); err != nil {
		t.Fatal(err)
	}
	g := d.Graph()
	if g == nil || len(g.Instances) != 4 {
		t.Fatalf("graph instances = %v", g)
	}
	if d.SampleCost() <= 0 {
		t.Fatal("samples should cost money")
	}
	if got := sampleChargesInCatalogOrder(t, m); got != d.SampleCost() {
		t.Fatalf("ledger and middleware disagree on sample cost: %v vs %v", got, d.SampleCost())
	}
	// Owned source is in the graph, free.
	si := g.InstanceIndex("src")
	if si < 0 || !g.Instances[si].Owned {
		t.Fatal("owned source missing from join graph")
	}
}

func TestAcquireProducesExecutablePlan(t *testing.T) {
	m, src := buildScenario(2)
	d := New(m, Config{SampleRate: 0.9, SampleSeed: 5})
	d.AddSource(src, nil)
	plan, err := d.Acquire(bg, acquisitionRequest())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Queries) == 0 {
		t.Fatal("plan has no queries")
	}
	for _, q := range plan.Queries {
		if q.Instance == "src" {
			t.Fatal("plan purchases the shopper's own data")
		}
		if !strings.HasPrefix(q.String(), "SELECT ") {
			t.Fatalf("query %q is not SQL-shaped", q.String())
		}
	}
	purchase, err := d.Execute(bg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if purchase.Joined.NumRows() == 0 {
		t.Fatal("joined purchase is empty")
	}
	if !purchase.Joined.Schema().Has("xval") || !purchase.Joined.Schema().Has("yval") {
		t.Fatalf("join misses requested attributes: %v", purchase.Joined.Schema().Names())
	}
	if purchase.Realized.Correlation <= 0 {
		t.Fatalf("realized correlation = %v", purchase.Realized.Correlation)
	}
	if purchase.TotalPrice <= 0 {
		t.Fatal("purchase should cost money")
	}
	if m.Ledger().TotalByKind("query") != purchase.TotalPrice {
		t.Fatal("ledger and purchase disagree")
	}
}

func TestAcquireRespectsBudget(t *testing.T) {
	m, src := buildScenario(3)
	d := New(m, Config{SampleRate: 0.9, SampleSeed: 5, MaxSampleRounds: 1})
	d.AddSource(src, nil)
	req := acquisitionRequest()
	req.Budget = 1e-9
	if _, err := d.Acquire(bg, req); err == nil {
		t.Fatal("unaffordable acquisition should fail")
	}
}

func TestAcquireEscalatesSampleRate(t *testing.T) {
	m, src := buildScenario(4)
	d := New(m, Config{SampleRate: 0.01, SampleSeed: 9, MaxSampleRounds: 6, RateGrowth: 4})
	d.AddSource(src, nil)
	req := acquisitionRequest()
	req.Beta = 0.2 // empty sample joins have quality 0 → infeasible until samples suffice
	plan, err := d.Acquire(bg, req)
	if err != nil {
		t.Fatalf("escalation should eventually succeed: %v", err)
	}
	if d.SampleRate() <= 0.01 {
		t.Fatalf("sample rate did not escalate: %v", d.SampleRate())
	}
	if plan.Est.Quality < 0.2 {
		t.Fatalf("final plan quality %v below β", plan.Est.Quality)
	}
}

func TestExecuteNilPlan(t *testing.T) {
	m, _ := buildScenario(5)
	d := New(m, Config{})
	if _, err := d.Execute(bg, nil); err == nil {
		t.Fatal("nil plan should error")
	}
}

func TestAcquireWithoutOfflineAutoRuns(t *testing.T) {
	m, src := buildScenario(6)
	d := New(m, Config{SampleRate: 0.9, SampleSeed: 2})
	d.AddSource(src, nil)
	if _, err := d.Acquire(bg, acquisitionRequest()); err != nil {
		t.Fatal(err)
	}
	if d.Graph() == nil {
		t.Fatal("offline phase should have run implicitly")
	}
}

func TestDiscoverFDsWhenUnpublished(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := relation.NewTable("zips", relation.NewSchema(
		relation.Cat("zip", relation.KindInt),
		relation.Cat("state", relation.KindString),
		relation.Cat("other", relation.KindInt),
	))
	for i := 0; i < 300; i++ {
		z := int64(rng.Intn(20))
		tab.AppendValues(relation.IntValue(z),
			relation.StringValue(string(rune('A'+z%5))),
			relation.IntValue(int64(rng.Intn(5))))
	}
	m := marketplace.NewInMemory(nil)
	m.Register(tab, nil) // no published FDs
	d := New(m, Config{SampleRate: 1, DiscoverFDs: true})
	if err := d.Offline(bg); err != nil {
		t.Fatal(err)
	}
	gi := d.Graph().InstanceIndex("zips")
	if len(d.Graph().Instances[gi].FDs) == 0 {
		t.Fatal("FD discovery found nothing")
	}
	found := false
	for _, f := range d.Graph().Instances[gi].FDs {
		if f.RHS == "state" && len(f.LHS) == 1 && f.LHS[0] == "zip" {
			found = true
		}
	}
	if !found {
		t.Fatalf("zip → state not discovered: %v", d.Graph().Instances[gi].FDs)
	}
}

// End-to-end over HTTP: the same flow with a remote marketplace.
func TestEndToEndOverHTTP(t *testing.T) {
	backend, src := buildScenario(8)
	srv := httptest.NewServer(marketplace.Handler(backend))
	defer srv.Close()

	d := New(marketplace.NewClient(srv.URL), Config{SampleRate: 0.9, SampleSeed: 5})
	d.AddSource(src, nil)
	plan, err := d.Acquire(bg, acquisitionRequest())
	if err != nil {
		t.Fatal(err)
	}
	purchase, err := d.Execute(bg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if purchase.Joined.NumRows() == 0 || purchase.Realized.Correlation <= 0 {
		t.Fatalf("HTTP end-to-end failed: rows=%d corr=%v",
			purchase.Joined.NumRows(), purchase.Realized.Correlation)
	}
}
