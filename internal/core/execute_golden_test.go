package core

import (
	"encoding/json"
	"os"
	"testing"

	"github.com/dance-db/dance/internal/marketplace"
	"github.com/dance-db/dance/internal/search"
	"github.com/dance-db/dance/internal/tpce"
	"github.com/dance-db/dance/internal/workload"
)

// The execute goldens freeze what the row-store execute path realized for
// three plans: the realized correlation and quality (exact float bits), the
// joined row count and the joined schema. They were captured from
// relation.JoinPath + infotheory.Correlation + fd.QualitySet before execute
// moved onto the columnar engine, and the columnar execute must reproduce
// them bit-for-bit. Regenerate with
// EXECUTE_GOLDEN_UPDATE=1 go test ./internal/core -run TestExecuteGolden
// only when the measures themselves change, never to absorb a kernel drift.
const executeGoldenPath = "testdata/execute_golden.json"

type executeGolden struct {
	Name        string   `json:"name"`
	Queries     []string `json:"queries"`
	Correlation string   `json:"correlation"`
	Quality     string   `json:"quality"`
	Rows        int      `json:"rows"`
	Schema      []string `json:"schema"`
}

func executeObserved(t *testing.T, name string, mw *Dance, req search.Request) executeGolden {
	t.Helper()
	plan, err := mw.Acquire(bg, req)
	if err != nil {
		t.Fatalf("%s: acquire: %v", name, err)
	}
	p, err := mw.Execute(bg, plan)
	if err != nil {
		t.Fatalf("%s: execute: %v", name, err)
	}
	g := executeGolden{
		Name:        name,
		Correlation: hexF(p.Realized.Correlation),
		Quality:     hexF(p.Realized.Quality),
		Rows:        p.Joined.NumRows(),
		Schema:      p.Joined.Schema().Names(),
	}
	for _, q := range plan.Queries {
		g.Queries = append(g.Queries, q.String())
	}
	return g
}

func TestExecuteGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-row planted execute")
	}
	var observed []executeGolden

	// The small correlated chain of the dance tests.
	m, src := buildScenario(2)
	mw := New(m, Config{SampleRate: 0.9, SampleSeed: 5})
	mw.AddSource(src, nil)
	observed = append(observed, executeObserved(t, "dance_test", mw, acquisitionRequest()))

	// TPC-E: the Sec 6.1 integration fixture.
	d := tpce.Generate(tpce.Config{Scale: 1, Seed: 7, DirtyFraction: 0.2})
	tm := marketplace.NewInMemory(nil)
	for _, tab := range d.Tables {
		tm.Register(tab, d.FDs[tab.Name])
	}
	mw = New(tm, Config{SampleRate: 0.8, SampleSeed: 11})
	observed = append(observed, executeObserved(t, "tpce", mw, search.Request{
		SourceAttrs: []string{"cabalance"},
		TargetAttrs: []string{"sectorname"},
		Iterations:  60,
		Seed:        3,
	}))

	// The bulk shape: a 50k-row owned base joined through a planted chain,
	// with the budget pinned to the cheapest correct plan.
	spec, err := workload.ParseSpec("chain:3,rows=50000")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	mw = New(w.MarketplaceWithoutBase(), Config{SampleRate: 0.2, SampleSeed: 78, Workers: 1})
	mw.AddSource(w.Base(), w.FDs[w.Base().Name])
	observed = append(observed, executeObserved(t, "chain:3,rows=50000", mw, search.Request{
		SourceAttrs:  []string{w.Truth.X},
		TargetAttrs:  []string{w.Truth.Y},
		Budget:       w.Truth.PlanCostOwned * (1 + 1e-6),
		Iterations:   60,
		Eta:          2000,
		ResampleRate: 0.2,
		Seed:         1,
		Workers:      1,
	}))

	if os.Getenv("EXECUTE_GOLDEN_UPDATE") != "" {
		buf, err := json.MarshalIndent(observed, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(executeGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d execute goldens to %s", len(observed), executeGoldenPath)
		return
	}
	buf, err := os.ReadFile(executeGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []executeGolden
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(observed) {
		t.Fatalf("golden has %d cases, observed %d", len(want), len(observed))
	}
	for i, wg := range want {
		wb, _ := json.MarshalIndent(wg, "", "  ")
		ob, _ := json.MarshalIndent(observed[i], "", "  ")
		if string(wb) != string(ob) {
			t.Errorf("execute of %s diverged from the row-path golden:\nwant %s\ngot  %s", wg.Name, wb, ob)
		}
	}
}
