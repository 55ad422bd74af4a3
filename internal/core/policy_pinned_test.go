package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/dance-db/dance/internal/marketplace"
	"github.com/dance-db/dance/internal/search"
	"github.com/dance-db/dance/internal/tpce"
	"github.com/dance-db/dance/internal/workload"
)

// The pinned-equivalence goldens freeze the exact output of the pre-policy
// Acquire path: plan queries, Est (exact float bits), Evals, the final
// sample rate and the per-round sample ledger, at Workers 1 and 8. The
// `dance` policy must reproduce them byte-for-byte — the policy extraction
// is a pure refactor of the search loop, not a behavior change. Regenerate
// with PINNED_UPDATE=1 go test ./internal/core -run TestDancePolicyPinned
// (only legitimate when the *search engine itself* changes, never to absorb
// a policy-layer drift).
const pinnedGoldenPath = "testdata/pinned_policies.json"

// hexF freezes a float64's exact bits as a hex-float literal.
func hexF(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }

type pinnedGolden struct {
	Name       string      `json:"name"`
	Workers    int         `json:"workers"`
	Queries    []string    `json:"queries"`
	Est        [4]string   `json:"est"` // correlation, quality, weight, price
	Evals      int         `json:"evals"`
	Rate       string      `json:"rate"`
	SampleCost string      `json:"sample_cost"`
	Rounds     [][4]string `json:"rounds"` // from, to, full, delta
	TopK       []string    `json:"topk,omitempty"`
}

func estBits(m search.Metrics) [4]string {
	return [4]string{hexF(m.Correlation), hexF(m.Quality), hexF(m.Weight), hexF(m.Price)}
}

// pinnedObserved runs one fixture through the default (dance) policy path
// and flattens everything the goldens pin.
func pinnedObserved(t *testing.T, name string, mw *Dance, req search.Request, k int, escalations int) pinnedGolden {
	t.Helper()
	g := pinnedGolden{Name: name, Workers: req.Workers}
	for i := 0; i < escalations; i++ {
		if _, err := mw.Escalate(bg); err != nil {
			t.Fatalf("%s: escalate: %v", name, err)
		}
	}
	plan, err := mw.Acquire(bg, req)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, q := range plan.Queries {
		g.Queries = append(g.Queries, q.String())
	}
	g.Est = estBits(plan.Est)
	// Evals: a fresh searcher over the final graph replays the winning
	// search deterministically, so the golden was capturable before the
	// Plan carried the count; the refactored plan must agree with both.
	res, err := search.NewSearcher(mw.Graph()).Heuristic(bg, req)
	if err != nil {
		t.Fatalf("%s: replaying search: %v", name, err)
	}
	if plan.Evals != res.Evals {
		t.Errorf("%s: plan.Evals %d != replayed search's %d", name, plan.Evals, res.Evals)
	}
	g.Evals = res.Evals
	g.Rate = hexF(mw.SampleRate())
	g.SampleCost = hexF(mw.SampleCost())
	for _, r := range mw.SampleRounds() {
		g.Rounds = append(g.Rounds, [4]string{hexF(r.FromRate), hexF(r.ToRate), hexF(r.FullCost), hexF(r.DeltaCost)})
	}
	if k > 0 {
		ranked, err := mw.AcquireTopK(bg, req, k, search.DefaultScoreWeights())
		if err != nil {
			t.Fatalf("%s: topk: %v", name, err)
		}
		for _, rp := range ranked {
			line := fmt.Sprintf("score=%s est=%v", hexF(rp.Score), estBits(rp.Plan.Est))
			for _, q := range rp.Plan.Queries {
				line += " " + q.String()
			}
			g.TopK = append(g.TopK, line)
		}
	}
	return g
}

func pinnedScenarioMW(t *testing.T, spec string, seed int64, rate float64, workers int) (*Dance, search.Request) {
	t.Helper()
	sp, err := workload.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(sp, seed)
	if err != nil {
		t.Fatal(err)
	}
	mw := New(w.Marketplace(), Config{SampleRate: rate, SampleSeed: uint64(seed) + 77, Workers: workers})
	req := search.Request{
		TargetAttrs: []string{w.Truth.X, w.Truth.Y},
		Budget:      w.Truth.PlanCost * (1 + 1e-6),
		Iterations:  60,
		Seed:        seed + 13,
		Workers:     workers,
	}
	return mw, req
}

func TestDancePolicyPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full pinned-equivalence sweep")
	}
	var observed []pinnedGolden
	for _, workers := range []int{1, 8} {
		// TPC-E: the Sec 6.1 integration fixture.
		d := tpce.Generate(tpce.Config{Scale: 1, Seed: 7, DirtyFraction: 0.2})
		m := marketplace.NewInMemory(nil)
		for _, tab := range d.Tables {
			m.Register(tab, d.FDs[tab.Name])
		}
		mw := New(m, Config{SampleRate: 0.8, SampleSeed: 11, Workers: workers})
		req := search.Request{
			SourceAttrs: []string{"cabalance"},
			TargetAttrs: []string{"sectorname"},
			Iterations:  60,
			Seed:        3,
			Workers:     workers,
		}
		observed = append(observed, pinnedObserved(t, fmt.Sprintf("tpce/w%d", workers), mw, req, 0, 0))

		// Scenario fixtures: a decoy-bearing chain (TopK pinned too), a
		// star, and a low-rate snowflake escalated twice before acquiring,
		// pinning the incremental delta-billing ledger (0.2→0.4→0.8).
		for _, sc := range []struct {
			spec string
			seed int64
			rate float64
			k    int
			esc  int
		}{
			{"chain:3,decoys=3", 1, 0.5, 3, 0},
			{"star:3", 2, 0.5, 0, 0},
			{"snowflake:2,null=0.05,price=flat", 3, 0.2, 0, 2},
		} {
			mw, req := pinnedScenarioMW(t, sc.spec, sc.seed, sc.rate, workers)
			name := fmt.Sprintf("%s/seed%d/w%d", sc.spec, sc.seed, workers)
			observed = append(observed, pinnedObserved(t, name, mw, req, sc.k, sc.esc))
		}
	}

	checkPinned(t, pinnedGoldenPath, observed)
}

// The try-before-you-buy golden freezes the TBYB policy's output on the
// owned-base scenario shape the load benchmarks use: the shopper owns the
// base listing (AddSource) and TBYB buys pilot and delta samples of the
// rest. Every escalation round rebuilds a join graph over fresh pilot
// samples, so this pins the join-informativeness weights of those graphs
// bit for bit. Regenerate with PINNED_UPDATE=1 go test ./internal/core -run
// TestTBYBPolicyPinned (only legitimate when the search engine changes).
const pinnedTBYBPath = "testdata/pinned_tbyb.json"

func TestTBYBPolicyPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full pinned-equivalence sweep")
	}
	var observed []pinnedGolden
	for _, workers := range []int{1, 8} {
		for _, sc := range []struct {
			spec string
			seed int64
			k    int
		}{
			{"star:4,rows=2000,keys=2000,fanout=2", 1, 0},
			{"chain:3,decoys=3", 2, 3},
			{"snowflake:2,null=0.05", 3, 0},
		} {
			sp, err := workload.ParseSpec(sc.spec)
			if err != nil {
				t.Fatal(err)
			}
			w, err := workload.Generate(sp, sc.seed)
			if err != nil {
				t.Fatal(err)
			}
			mw := New(w.MarketplaceWithoutBase(), Config{SampleRate: 0.3, SampleSeed: uint64(sc.seed) + 77, Workers: workers})
			mw.AddSource(w.Base(), w.FDs[w.Base().Name])
			req := search.Request{
				SourceAttrs: []string{w.Truth.X},
				TargetAttrs: []string{w.Truth.Y},
				Budget:      w.Truth.PlanCostOwned * (1 + 1e-6),
				Iterations:  20,
				Seed:        sc.seed + 13,
				Workers:     workers,
				Policy:      "try-before-you-buy",
			}
			name := fmt.Sprintf("tbyb/%s/seed%d/w%d", sc.spec, sc.seed, workers)
			observed = append(observed, policyObserved(t, name, mw, req, sc.k))
		}
	}
	checkPinned(t, pinnedTBYBPath, observed)
}

// The greedy golden freezes the greedy baseline policy (search.GreedyAcquire
// and search.GreedyTopK behind the shared escalation loop) on the fixtures
// of the dance golden: plans, Est bits, Evals, the sample ledger and the
// ranked options, single-plan and K=3, at Workers 1 and 8. The snowflake
// fixture starts at a low rate, so the policy escalates on its own.
// Regenerate with PINNED_UPDATE=1 go test ./internal/core -run
// TestGreedyPolicyPinned (only legitimate when the search engine changes).
const pinnedGreedyPath = "testdata/pinned_greedy.json"

func TestGreedyPolicyPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full pinned-equivalence sweep")
	}
	var observed []pinnedGolden
	for _, workers := range []int{1, 8} {
		for _, k := range []int{0, 3} {
			d := tpce.Generate(tpce.Config{Scale: 1, Seed: 7, DirtyFraction: 0.2})
			m := marketplace.NewInMemory(nil)
			for _, tab := range d.Tables {
				m.Register(tab, d.FDs[tab.Name])
			}
			mw := New(m, Config{SampleRate: 0.8, SampleSeed: 11, Workers: workers})
			req := search.Request{
				SourceAttrs: []string{"cabalance"},
				TargetAttrs: []string{"sectorname"},
				Iterations:  60,
				Seed:        3,
				Workers:     workers,
				Policy:      "greedy",
			}
			name := fmt.Sprintf("greedy/tpce/k%d/w%d", k, workers)
			observed = append(observed, policyObserved(t, name, mw, req, k))

			for _, sc := range []struct {
				spec string
				seed int64
				rate float64
			}{
				{"chain:3,decoys=3", 1, 0.5},
				{"star:3", 2, 0.5},
				{"snowflake:2,null=0.05", 3, 0.2},
			} {
				mw, req := pinnedScenarioMW(t, sc.spec, sc.seed, sc.rate, workers)
				req.Policy = "greedy"
				name := fmt.Sprintf("greedy/%s/seed%d/k%d/w%d", sc.spec, sc.seed, k, workers)
				observed = append(observed, policyObserved(t, name, mw, req, k))
			}
		}
	}
	checkPinned(t, pinnedGreedyPath, observed)
}

// policyObserved runs one fixture through the policy req names — the single
// plan, then (k > 0) the ranked options — and flattens everything the
// goldens pin.
func policyObserved(t *testing.T, name string, mw *Dance, req search.Request, k int) pinnedGolden {
	t.Helper()
	g := pinnedGolden{Name: name, Workers: req.Workers}
	plan, err := mw.Acquire(bg, req)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, q := range plan.Queries {
		g.Queries = append(g.Queries, q.String())
	}
	g.Est = estBits(plan.Est)
	g.Evals = plan.Evals
	if k > 0 {
		ranked, err := mw.AcquireTopK(bg, req, k, search.DefaultScoreWeights())
		if err != nil {
			t.Fatalf("%s: topk: %v", name, err)
		}
		for _, rp := range ranked {
			line := fmt.Sprintf("score=%s est=%v", hexF(rp.Score), estBits(rp.Plan.Est))
			if req.Policy == "greedy" {
				// Only the greedy golden (captured after this field was
				// added) pins the ranked options' evaluation count.
				line += fmt.Sprintf(" evals=%d", rp.Plan.Evals)
			}
			for _, q := range rp.Plan.Queries {
				line += " " + q.String()
			}
			g.TopK = append(g.TopK, line)
		}
	}
	g.Rate = hexF(mw.SampleRate())
	g.SampleCost = hexF(mw.SampleCost())
	for _, r := range mw.SampleRounds() {
		g.Rounds = append(g.Rounds, [4]string{hexF(r.FromRate), hexF(r.ToRate), hexF(r.FullCost), hexF(r.DeltaCost)})
	}
	return g
}

// checkPinned compares observed with the golden at path, or rewrites the
// golden when PINNED_UPDATE is set.
func checkPinned(t *testing.T, path string, observed []pinnedGolden) {
	t.Helper()
	if os.Getenv("PINNED_UPDATE") != "" {
		buf, err := json.MarshalIndent(observed, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d pinned cases to %s", len(observed), path)
		return
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []pinnedGolden
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(observed) {
		t.Fatalf("golden has %d cases, observed %d", len(want), len(observed))
	}
	for i, w := range want {
		o := observed[i]
		wb, _ := json.MarshalIndent(w, "", "  ")
		ob, _ := json.MarshalIndent(o, "", "  ")
		if string(wb) != string(ob) {
			t.Errorf("pinned case %s diverged from pre-refactor output:\nwant %s\ngot  %s", w.Name, wb, ob)
		}
	}
}

// TestPolicySourcesShareOwnedEncoding pins that policies see the encoding
// AddSource built, so a policy's join graphs never re-encode the shopper's
// owned base.
func TestPolicySourcesShareOwnedEncoding(t *testing.T) {
	sp, err := workload.ParseSpec("chain:2")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	mw := New(w.MarketplaceWithoutBase(), Config{})
	mw.AddSource(w.Base(), nil)
	srcs := policyHost{d: mw}.Sources()
	mw.mu.Lock()
	owned := mw.sources[0].cols
	mw.mu.Unlock()
	if len(srcs) != 1 || srcs[0].Columnar == nil || srcs[0].Columnar != owned {
		t.Fatal("policy sources do not carry the encoding AddSource built")
	}
}
