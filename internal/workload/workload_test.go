package workload

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dance-db/dance/internal/core"
	"github.com/dance-db/dance/internal/search"
)

var bg = context.Background()

// tableBytes serializes every listing to CSV for byte-level comparison.
func tableBytes(t *testing.T, w *Workload) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, tab := range w.Listings {
		if err := tab.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestGenerateDeterministic(t *testing.T) {
	specs := []string{
		"chain:3",
		"star:3,kinds=mixed,null=0.05,skew=1.3",
		"snowflake:2,rows=300,price=tiered,fanout=2",
	}
	for _, s := range specs {
		spec, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		a, err := Generate(spec, 7)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		b, err := Generate(spec, 7)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if !bytes.Equal(tableBytes(t, a), tableBytes(t, b)) {
			t.Fatalf("%s: same (seed, spec) produced different marketplace bytes", s)
		}
		if a.Truth.Rho != b.Truth.Rho || a.Truth.PlanCost != b.Truth.PlanCost {
			t.Fatalf("%s: ground truth differs: %+v vs %+v", s, a.Truth, b.Truth)
		}
		c, err := Generate(spec, 8)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if bytes.Equal(tableBytes(t, a), tableBytes(t, c)) {
			t.Fatalf("%s: different seeds produced identical bytes", s)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	in := "snowflake:3,attrs=2,classes=4,decoys=1,fanout=2,keys=24,kinds=mixed,noise=0.1,null=0.02,price=flat,rows=500,skew=1.5"
	spec, err := ParseSpec(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.String(); got != in {
		t.Fatalf("canonical form %q does not round-trip %q", got, in)
	}
	again, err := ParseSpec(spec.String())
	if err != nil {
		t.Fatal(err)
	}
	if again != spec {
		t.Fatalf("re-parsed spec differs: %+v vs %+v", again, spec)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, s := range []string{
		"",                 // no topology:size
		"chain",            // missing size
		"ring:3",           // unknown topology
		"chain:0",          // size < 1
		"chain:2,rows",     // malformed option
		"chain:2,bogus=1",  // unknown option
		"chain:2,rows=x",   // bad number
		"chain:2,null=0.9", // out of range
		"chain:2,price=up", // unknown family
	} {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted a malformed spec", s)
		}
	}
}

// TestParseSpecRejectsNonFinite: NaN passes every range comparison by
// failing it, and +Inf is not negative, so non-finite float knobs must be
// rejected explicitly — a NaN spec breaks the ParseSpec(s.String())
// round trip, and an infinite skew hangs Generate.
func TestParseSpecRejectsNonFinite(t *testing.T) {
	for _, knob := range []string{"noise", "null", "skew"} {
		for _, v := range []string{"NaN", "+Inf", "-Inf", "inf"} {
			s := "chain:2," + knob + "=" + v
			if _, err := ParseSpec(s); err == nil {
				t.Errorf("ParseSpec(%q) accepted a non-finite value", s)
			}
		}
	}
	// Generate validates first; checked on Validate so a regression fails
	// fast instead of hanging in the Zipf draw.
	spec := DefaultSpec(Chain, 2)
	spec.Skew = math.Inf(1)
	if err := spec.Validate(); err == nil {
		t.Fatal("Validate accepted skew=+Inf")
	}
}

// scenarioMatrixSpecs mirrors the CI scenario matrix (scenario_matrix_test.go
// at the module root); it seeds FuzzParseSpec.
var scenarioMatrixSpecs = []string{
	"chain:1",
	"chain:2",
	"chain:3,decoys=3",
	"chain:4,kinds=mixed",
	"chain:2,null=0.1,skew=1.4",
	"chain:3,fanout=2,price=tiered",
	"star:2",
	"star:3,kinds=mixed,null=0.05",
	"star:4,price=flat,skew=1.2",
	"snowflake:2",
	"snowflake:3,kinds=mixed",
	"snowflake:2,null=0.08,fanout=2,price=tiered",
}

// FuzzParseSpec: ParseSpec never panics, and every spec it accepts
// round-trips through String to an equal Spec.
func FuzzParseSpec(f *testing.F) {
	for _, s := range scenarioMatrixSpecs {
		f.Add(s)
	}
	f.Add("snowflake:3,attrs=2,classes=4,decoys=1,fanout=2,keys=24,kinds=mixed,noise=0.1,null=0.02,price=flat,rows=500,skew=1.5")
	f.Add("chain:2,noise=NaN")
	f.Add("chain:2,skew=+Inf")
	f.Add("chain:+2, rows = 10 ,,noise=-0,skew=0x1p1")
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseSpec(in)
		if err != nil {
			return
		}
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted, but its canonical form %q is rejected: %v", in, spec.String(), err)
		}
		if again != spec {
			t.Fatalf("ParseSpec(%q) = %+v, re-parsed from %q as %+v", in, spec, spec.String(), again)
		}
	})
}

// TestPlantedCorrelation checks the planting machinery: the measured ρ is
// positive, beats a heavily noised variant, and the cheapest plan is priced
// consistently with its owned-source discount.
func TestPlantedCorrelation(t *testing.T) {
	for _, s := range []string{"chain:2", "chain:4,kinds=mixed", "star:3", "snowflake:2"} {
		spec, err := ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		w, err := Generate(spec, 11)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if w.Truth.Rho <= 0.2 {
			t.Errorf("%s: planted correlation %v too weak", s, w.Truth.Rho)
		}
		if w.Truth.PlanCost <= w.Truth.PlanCostOwned || w.Truth.PlanCostOwned <= 0 {
			t.Errorf("%s: plan costs %v / %v inconsistent", s, w.Truth.PlanCost, w.Truth.PlanCostOwned)
		}
		if len(w.Truth.Queries) != len(w.Truth.Path) {
			t.Errorf("%s: %d queries for %d path steps", s, len(w.Truth.Queries), len(w.Truth.Path))
		}
		noisy := spec
		noisy.Noise = 0.9
		nw, err := Generate(noisy, 11)
		if err != nil {
			t.Fatal(err)
		}
		if nw.Truth.Rho >= w.Truth.Rho {
			t.Errorf("%s: noise 0.9 did not weaken ρ (%v vs %v)", s, nw.Truth.Rho, w.Truth.Rho)
		}
	}
}

// TestDanceRecoversChain is the always-on smoke of the scenario matrix: a
// full acquisition against one generated chain marketplace recovers the
// planted correlation exactly and pays no more than the ground-truth plan.
func TestDanceRecoversChain(t *testing.T) {
	spec, err := ParseSpec("chain:2,decoys=1")
	if err != nil {
		t.Fatal(err)
	}
	w, err := Generate(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	mw := core.New(w.Marketplace(), core.Config{SampleRate: 0.6, SampleSeed: 9})
	plan, err := mw.Acquire(bg, search.Request{
		TargetAttrs: []string{w.Truth.X, w.Truth.Y},
		Iterations:  60,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Est.Price > w.Truth.PlanCost*1.0001 {
		t.Fatalf("plan price %v exceeds ground-truth cheapest cost %v", plan.Est.Price, w.Truth.PlanCost)
	}
	purchase, err := mw.Execute(bg, plan)
	if err != nil {
		t.Fatal(err)
	}
	got, want := purchase.Realized.Correlation, w.Truth.Rho
	if got < want*0.98 || got > want*1.02 {
		t.Fatalf("realized correlation %v, planted %v", got, want)
	}
}

func TestWriteDirRoundTrip(t *testing.T) {
	spec, err := ParseSpec("chain:2,null=0.05")
	if err != nil {
		t.Fatal(err)
	}
	w, err := Generate(spec, 21)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	gotSpec, seed, truth, err := ReadTruth(filepath.Join(dir, "workload.json"))
	if err != nil {
		t.Fatal(err)
	}
	if gotSpec != spec || seed != 21 {
		t.Fatalf("truth file round-trip: spec %+v seed %d", gotSpec, seed)
	}
	if truth.Rho != w.Truth.Rho || truth.PlanCost != w.Truth.PlanCost {
		t.Fatalf("truth differs after round-trip: %+v vs %+v", truth, w.Truth)
	}
	if len(truth.Queries) != len(w.Truth.Queries) {
		t.Fatalf("queries lost in round-trip")
	}
	if !strings.HasPrefix(truth.Path[0], "base") {
		t.Fatalf("path = %v", truth.Path)
	}
}
