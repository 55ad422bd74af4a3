package marketplace_test

import (
	"bytes"
	"context"
	"testing"

	"github.com/dance-db/dance/internal/marketplace"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/sampling"
	"github.com/dance-db/dance/internal/tpce"
	"github.com/dance-db/dance/internal/tpch"
	"github.com/dance-db/dance/internal/workload"
)

func csvBytes(t *testing.T, tab *relation.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIndexedSamplingMatchesCorrelatedSampleRange pins the seller index to
// the reference sampler: for every listing and every column of five
// marketplaces, indexed Sample and SampleDelta answers are byte for byte
// the CSV of sampling.CorrelatedSampleRange over the full listing, across
// the escalation ladder's rates and every delta between them.
func TestIndexedSamplingMatchesCorrelatedSampleRange(t *testing.T) {
	ctx := context.Background()
	markets := map[string][]*relation.Table{
		"tpch": tpch.Generate(tpch.Config{Scale: 1, Seed: 2, DirtyFraction: 0.3}).Tables,
		"tpce": tpce.Generate(tpce.Config{Scale: 1, Seed: 3, DirtyFraction: 0.2}).Tables,
	}
	for _, spec := range []string{"star:4", "chain:3,decoys=3", "snowflake:2,null=0.05"} {
		s, err := workload.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		w, err := workload.Generate(s, 5)
		if err != nil {
			t.Fatal(err)
		}
		markets[spec] = w.Listings
	}
	rates := []float64{0.05, 0.15, 0.45, 1}
	const seed = 13
	for label, tables := range markets {
		m := marketplace.NewInMemory(nil)
		for _, tab := range tables {
			m.Register(tab, nil)
		}
		for _, tab := range tables {
			for _, col := range tab.Schema.Names() {
				on := []string{col}
				h := sampling.NewHasher(seed)
				check := func(from, to float64, got *relation.Table) {
					t.Helper()
					want, err := sampling.CorrelatedSampleRange(tab, on, from, to, h)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(csvBytes(t, got), csvBytes(t, want)) {
						t.Fatalf("%s/%s on %s, (%g, %g]: indexed output differs from CorrelatedSampleRange",
							label, tab.Name, col, from, to)
					}
				}
				for i, to := range rates {
					got, _, err := m.Sample(ctx, tab.Name, on, to, seed)
					if err != nil {
						t.Fatal(err)
					}
					check(0, to, got)
					for _, from := range rates[:i] {
						got, _, err := m.SampleDelta(ctx, tab.Name, on, from, to, seed)
						if err != nil {
							t.Fatal(err)
						}
						check(from, to, got)
					}
				}
			}
		}
	}
}
