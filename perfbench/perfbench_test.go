package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"path/filepath"
	"testing"
)

// countMetrics are the metrics that must repeat exactly for a seed and a
// fixed op count.
var countMetrics = []string{
	"search.evals_per_acquire",
	"marketplace.rows_per_op",
	"persist.appends_per_op",
	"persist.journal_bytes_per_op",
	"spend_usd_per_op",
	"realized_corr_bits",
}

func shortRun(t *testing.T, workload string, seed int64) map[string]float64 {
	t.Helper()
	dir := t.TempDir()
	res, err := runBench(context.Background(), options{
		workload: workload, seed: seed, trace: true,
		coldStarts: 1, warmups: 1, ops: 6,
		dir: dir, spans: filepath.Join(dir, "spans.jsonl"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct || res.attempted != 6 {
		t.Fatalf("run not correct (%d attempted, %d failed): %v", res.attempted, res.failed, res.problems)
	}
	return res.metrics
}

func TestCountsRepeatForSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := shortRun(t, w.name, 3), shortRun(t, w.name, 3)
			for _, name := range countMetrics {
				if a[name] != b[name] {
					t.Errorf("%s: %v then %v for the same seed", name, a[name], b[name])
				}
			}
			if a["search.evals_per_acquire"] <= 0 || a["marketplace.rows_per_op"] <= 0 {
				t.Errorf("counts not measured: %v", a)
			}
		})
	}
}

// inputsDigest hashes a scenario's generated listings and first requests.
func inputsDigest(t *testing.T, w workloadDef, seed int64) [32]byte {
	t.Helper()
	sc, err := w.generate(context.Background(), seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, l := range sc.listings {
		if err := l.WriteCSV(h); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		data, err := json.Marshal(sc.timedOp(i))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			one, again, two := inputsDigest(t, w, 1), inputsDigest(t, w, 1), inputsDigest(t, w, 2)
			if one != again {
				t.Error("the same seed generated different inputs")
			}
			if one == two {
				t.Error("a different seed generated the same inputs")
			}
		})
	}
}

func TestCoverage(t *testing.T) {
	ivs := []interval{{0, 10}, {5, 15}, {20, 30}, {25, 26}}
	for _, c := range []struct {
		lo, hi, want int64
	}{
		{0, forever, 25},
		{8, 22, 9},
		{30, 40, 0},
	} {
		if got := coverage(ivs, c.lo, c.hi); got != c.want {
			t.Errorf("coverage in [%d, %d] = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
}
