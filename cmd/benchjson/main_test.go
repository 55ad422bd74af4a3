package main

import (
	"bufio"
	"context"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: github.com/dance-db/dance
BenchmarkCorrelation-8   	  126180	     19071 ns/op	   18344 B/op	      50 allocs/op
BenchmarkHeuristicTPCESerial 	    1716	   1439719.5 ns/op	 1316721 B/op	    5163 allocs/op
BenchmarkNoMem-4         	     100	      1234 ns/op
BenchmarkMarketplaceLoopback-2   	     229	   4990193 ns/op	     12460 rows/op	 3875358 B/op	    2921 allocs/op
PASS
`
	got, err := parse(context.Background(), bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %v", len(got), got)
	}
	c := got["BenchmarkCorrelation"]
	if c.NsPerOp != 19071 || c.BytesPerOp != 18344 || c.AllocsPerOp != 50 || !c.mem {
		t.Fatalf("BenchmarkCorrelation = %+v", c)
	}
	h := got["BenchmarkHeuristicTPCESerial"]
	if h.NsPerOp != 1439719.5 || h.AllocsPerOp != 5163 {
		t.Fatalf("BenchmarkHeuristicTPCESerial = %+v", h)
	}
	// A benchmark's own metrics come before B/op and allocs/op.
	l := got["BenchmarkMarketplaceLoopback"]
	if l.NsPerOp != 4990193 || l.BytesPerOp != 3875358 || l.AllocsPerOp != 2921 || !l.mem {
		t.Fatalf("BenchmarkMarketplaceLoopback = %+v", l)
	}
	n := got["BenchmarkNoMem"]
	if n.NsPerOp != 1234 || n.BytesPerOp != 0 || n.AllocsPerOp != 0 || n.mem {
		t.Fatalf("BenchmarkNoMem = %+v", n)
	}
}

func TestCheckFaster(t *testing.T) {
	results := map[string]Result{
		"BenchmarkIncremental": {NsPerOp: 100},
		"BenchmarkFull":        {NsPerOp: 250},
	}
	if err := checkFaster(results, "BenchmarkIncremental<BenchmarkFull"); err != nil {
		t.Fatalf("valid ordering rejected: %v", err)
	}
	if err := checkFaster(results, "BenchmarkFull<BenchmarkIncremental"); err == nil {
		t.Fatal("inverted ordering must fail")
	}
	if err := checkFaster(results, "BenchmarkIncremental<BenchmarkMissing"); err == nil {
		t.Fatal("missing benchmark must fail")
	}
	if err := checkFaster(results, "garbage"); err == nil {
		t.Fatal("malformed pair must fail")
	}
	if err := checkFaster(results, " BenchmarkIncremental < BenchmarkFull , "); err != nil {
		t.Fatalf("whitespace/trailing comma should be tolerated: %v", err)
	}
}

// Chained or one-sided pairs must be rejected as malformed, not half-read:
// a SplitN-based parse used to fold "B<C" into the second operand and
// report a misleading "missing from input" for specs that were never valid.
func TestCheckFasterMalformed(t *testing.T) {
	results := map[string]Result{
		"BenchmarkA": {NsPerOp: 1},
		"BenchmarkB": {NsPerOp: 2},
		"BenchmarkC": {NsPerOp: 3},
	}
	for _, spec := range []string{
		"BenchmarkA<BenchmarkB<BenchmarkC", // chained
		"<BenchmarkB",                      // empty left side
		"BenchmarkA<",                      // empty right side
		"BenchmarkA<BenchmarkB,<",          // valid pair then malformed
	} {
		err := checkFaster(results, spec)
		if err == nil {
			t.Errorf("checkFaster(%q) accepted a malformed spec", spec)
			continue
		}
		if !strings.Contains(err.Error(), "malformed") {
			t.Errorf("checkFaster(%q) = %v, want a malformed-spec error", spec, err)
		}
	}
}

func TestCheckRatio(t *testing.T) {
	results := map[string]Result{
		"BenchmarkSerial":   {NsPerOp: 1000},
		"BenchmarkParallel": {NsPerOp: 400},
		"BenchmarkZero":     {NsPerOp: 0},
	}
	if err := checkRatio(results, "BenchmarkSerial/BenchmarkParallel>=2.0", 0); err != nil {
		t.Fatalf("2.5× speedup rejected against a 2.0 floor: %v", err)
	}
	if err := checkRatio(results, "BenchmarkSerial/BenchmarkParallel>=3.0", 0); err == nil {
		t.Fatal("2.5× speedup must fail a strict 3.0 floor")
	}
	// Slack discounts the floor: 3.0×(1−0.25) = 2.25 ≤ 2.5 passes.
	if err := checkRatio(results, "BenchmarkSerial/BenchmarkParallel>=3.0", 0.25); err != nil {
		t.Fatalf("2.5× speedup rejected against a 3.0 floor with 25%% slack: %v", err)
	}
	if err := checkRatio(results, "BenchmarkSerial/BenchmarkMissing>=2.0", 0); err == nil {
		t.Fatal("missing benchmark must fail")
	}
	if err := checkRatio(results, "BenchmarkSerial/BenchmarkZero>=2.0", 0); err == nil {
		t.Fatal("zero-ns/op denominator must fail")
	}
	if err := checkRatio(results, " BenchmarkSerial / BenchmarkParallel >= 2.0 , ", 0); err != nil {
		t.Fatalf("whitespace/trailing comma should be tolerated: %v", err)
	}
	if err := checkRatio(results, "BenchmarkSerial/BenchmarkParallel>=2.0", 1.5); err == nil {
		t.Fatal("slack outside [0, 1) must fail")
	}
}

// Malformed ratio specs are CI configuration bugs: they must be rejected
// loudly, never half-parsed into a gate that silently checks nothing.
func TestCheckRatioMalformed(t *testing.T) {
	results := map[string]Result{
		"BenchmarkA": {NsPerOp: 10},
		"BenchmarkB": {NsPerOp: 5},
	}
	for _, spec := range []string{
		"BenchmarkA/BenchmarkB",               // no floor
		"BenchmarkA>=2.0",                     // no ratio pair
		"BenchmarkA/BenchmarkB/BenchmarkC>=2", // chained division
		"BenchmarkA/BenchmarkB>=2>=3",         // chained floors
		"/BenchmarkB>=2.0",                    // empty numerator
		"BenchmarkA/>=2.0",                    // empty denominator
		"BenchmarkA/BenchmarkB>=fast",         // non-numeric floor
		"BenchmarkA/BenchmarkB>=-1",           // non-positive floor
		"BenchmarkA/BenchmarkB>=0",            // zero floor
		"BenchmarkA/BenchmarkB>=2.0,garbage",  // valid spec then malformed
	} {
		err := checkRatio(results, spec, 0)
		if err == nil {
			t.Errorf("checkRatio(%q) accepted a malformed spec", spec)
			continue
		}
		if !strings.Contains(err.Error(), "malformed") {
			t.Errorf("checkRatio(%q) = %v, want a malformed-spec error", spec, err)
		}
	}
}

func TestCheckCeiling(t *testing.T) {
	results := map[string]Result{
		"BenchmarkEval":  {NsPerOp: 1000, BytesPerOp: 46000, AllocsPerOp: 350, mem: true},
		"BenchmarkNoMem": {NsPerOp: 1000},
	}
	if err := checkCeiling(results, "BenchmarkEval<=60000"); err != nil {
		t.Fatalf("46000 B/op rejected against a 60000 ceiling: %v", err)
	}
	if err := checkCeiling(results, "BenchmarkEval<=46000"); err != nil {
		t.Fatalf("a ceiling is inclusive: %v", err)
	}
	if err := checkCeiling(results, "BenchmarkEval<=45999"); err == nil {
		t.Fatal("46000 B/op must fail a 45999 ceiling")
	}
	if err := checkCeiling(results, "BenchmarkMissing<=1"); err == nil {
		t.Fatal("missing benchmark must fail")
	}
	if err := checkCeiling(results, "BenchmarkNoMem<=1000000"); err == nil {
		t.Fatal("a benchmark without -benchmem output must fail, not pass at 0 B/op")
	}
	if err := checkCeiling(results, ""); err != nil {
		t.Fatalf("an empty spec gates nothing: %v", err)
	}
	if err := checkCeiling(results, " BenchmarkEval <= 60000 , "); err != nil {
		t.Fatalf("whitespace/trailing comma should be tolerated: %v", err)
	}
	for _, spec := range []string{
		"BenchmarkEval",            // no ceiling
		"BenchmarkEval<60000",      // strict comparison
		"<=60000",                  // empty name
		"BenchmarkEval<=lots",      // non-numeric ceiling
		"BenchmarkEval<=-1",        // negative ceiling
		"BenchmarkEval<=1.5",       // fractional ceiling
		"BenchmarkEval<=1<=2",      // chained ceilings
		"BenchmarkEval<=60000,bad", // valid spec then malformed
	} {
		err := checkCeiling(results, spec)
		if err == nil || !strings.Contains(err.Error(), "malformed") {
			t.Errorf("checkCeiling(%q) = %v, want a malformed-spec error", spec, err)
		}
	}
}

func TestMarshalStable(t *testing.T) {
	m := map[string]Result{
		"BenchmarkB": {NsPerOp: 2},
		"BenchmarkA": {NsPerOp: 1},
	}
	out, err := marshalStable(m)
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	if !strings.Contains(s, "BenchmarkA") || strings.Index(s, "BenchmarkA") > strings.Index(s, "BenchmarkB") {
		t.Fatalf("keys not sorted: %s", s)
	}
}
