package core

import (
	"testing"

	"github.com/dance-db/dance/internal/marketplace"
	"github.com/dance-db/dance/internal/search"
	"github.com/dance-db/dance/internal/tpce"
)

// TestTPCEEndToEnd drives the complete pipeline at dataset scale: a
// marketplace listing all 29 TPC-E tables, offline sampling, the length-8
// acquisition query of Sec 6.1, purchase, and realized metrics.
func TestTPCEEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full 29-table pipeline")
	}
	d := tpce.Generate(tpce.Config{Scale: 1, Seed: 7, DirtyFraction: 0.2})
	m := marketplace.NewInMemory(nil)
	for _, tab := range d.Tables {
		m.Register(tab, d.FDs[tab.Name])
	}
	mw := New(m, Config{SampleRate: 0.8, SampleSeed: 11})
	plan, err := mw.Acquire(bg, search.Request{
		SourceAttrs: []string{"cabalance"},
		TargetAttrs: []string{"sectorname"},
		Iterations:  60,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Queries) < 5 {
		t.Fatalf("the cabalance→sectorname spine needs several instances, plan buys %d", len(plan.Queries))
	}
	purchase, err := mw.Execute(bg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if purchase.Joined.NumRows() == 0 {
		t.Fatal("purchased join is empty")
	}
	if !purchase.Joined.Schema().Has("cabalance") || !purchase.Joined.Schema().Has("sectorname") {
		t.Fatalf("join misses requested attributes: %v", purchase.Joined.Schema().Names())
	}
	if purchase.TotalPrice <= 0 || purchase.TotalPrice > plan.Est.Price+1e-6 {
		t.Fatalf("charged %v vs quoted %v", purchase.TotalPrice, plan.Est.Price)
	}
	if got := sampleChargesInCatalogOrder(t, m); got != mw.SampleCost() {
		t.Fatalf("sample billing mismatch: ledger %v, middleware %v", got, mw.SampleCost())
	}
}
