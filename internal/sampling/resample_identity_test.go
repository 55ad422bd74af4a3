package sampling_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/sampling"
	"github.com/dance-db/dance/internal/tpch"
	"github.com/dance-db/dance/internal/workload"
)

// recordingCache is a PrefixCache that keeps every published intermediate.
type recordingCache struct {
	m    map[string]*relation.Columnar
	puts int
}

func (c *recordingCache) Get(key string) (*relation.Columnar, bool) {
	v, ok := c.m[key]
	return v, ok
}

func (c *recordingCache) Put(key string, v *relation.Columnar) {
	c.m[key] = v
	c.puts++
}

// unfusedPath is the oracle of ResampledJoinPathColumnar: every hop is the
// fully gathered serial join, and a tripped η re-samples it afterwards with
// CorrelatedSampleColumnar. It returns every intermediate, re-sampled where
// η tripped.
func unfusedPath(t *testing.T, steps []sampling.ColumnarStep, opts sampling.PathJoinOptions) ([]*relation.Columnar, sampling.ResampleStats) {
	t.Helper()
	var stats sampling.ResampleStats
	inter := []*relation.Columnar{steps[0].C}
	for i := 1; i < len(steps); i++ {
		j, err := relation.EquiJoinColumnar(inter[i-1], steps[i].C, steps[i].On, nil)
		if err != nil {
			t.Fatal(err)
		}
		stats.IntermediateSizes = append(stats.IntermediateSizes, j.NumRows())
		resampled := opts.Eta > 0 && i < len(steps)-1 && j.NumRows() > opts.Eta
		if resampled {
			if j, err = sampling.CorrelatedSampleColumnar(j, steps[i+1].On, opts.ResampleRate, opts.Hasher); err != nil {
				t.Fatal(err)
			}
		}
		stats.Resampled = append(stats.Resampled, resampled)
		inter = append(inter, j)
	}
	return inter, stats
}

// assertColumnarIdentical requires got to be want bit for bit: name,
// schema, row count, and per column the same codes over the same
// dictionary (or the same raw numbers and NULL mask).
func assertColumnarIdentical(t *testing.T, what string, want, got *relation.Columnar) {
	t.Helper()
	if want.Name != got.Name || !want.Schema().Equal(got.Schema()) || want.NumRows() != got.NumRows() {
		t.Fatalf("%s: got %s%s with %d rows, want %s%s with %d rows",
			what, got.Name, got.Schema(), got.NumRows(), want.Name, want.Schema(), want.NumRows())
	}
	for col := 0; col < want.Schema().Len(); col++ {
		if want.Dict(col) != got.Dict(col) || !slices.Equal(want.Codes(col), got.Codes(col)) {
			t.Fatalf("%s: column %s differs", what, want.Schema().Column(col).Name)
		}
		if want.Codes(col) == nil {
			for row := 0; row < want.NumRows(); row++ {
				if w, g := want.ValueAt(row, col), got.ValueAt(row, col); !w.EqualValue(g) || w.IsNull() != g.IsNull() {
					t.Fatalf("%s: row %d of column %s: got %v, want %v", what, row, want.Schema().Column(col).Name, g, w)
				}
			}
		}
	}
}

// withNullKeys returns a copy of t with about frac of the cells of each
// named join column t has set to NULL.
func withNullKeys(rng *rand.Rand, t *relation.Table, on []string, frac float64) *relation.Table {
	out := relation.NewTable(t.Name, t.Schema)
	for _, r := range t.Rows {
		row := append([]relation.Value(nil), r...)
		for _, a := range on {
			if j := t.Schema.Index(a); j >= 0 && rng.Float64() < frac {
				row[j] = relation.Null()
			}
		}
		out.Append(row)
	}
	return out
}

// identityPath is a named join path over row tables: tables[i] joins the
// accumulated prefix on on[i] (on[0] is unused).
type identityPath struct {
	name   string
	tables []*relation.Table
	on     [][]string
	eta    int
}

func tpchIdentityPaths(t *testing.T) []identityPath {
	t.Helper()
	d := tpch.Generate(tpch.Config{Scale: 2, Seed: 5, DirtyFraction: 0.3})
	tab := d.Table
	return []identityPath{
		{name: "tpch-Q1", eta: 40, tables: []*relation.Table{tab("orders"), tab("customer")},
			on: [][]string{nil, {"custkey"}}},
		{name: "tpch-Q2", eta: 40, tables: []*relation.Table{tab("orders"), tab("customer"), tab("nation")},
			on: [][]string{nil, {"custkey"}, {"nationkey"}}},
		{name: "tpch-Q3", eta: 100, tables: []*relation.Table{tab("lineitem"), tab("orders"), tab("customer"), tab("nation"), tab("region")},
			on: [][]string{nil, {"orderkey"}, {"custkey"}, {"nationkey"}, {"regionkey"}}},
	}
}

// workloadIdentityPath is the spec's planted path followed by every decoy
// listing that joins it on exactly one attribute.
func workloadIdentityPath(t *testing.T, specStr string, eta int) identityPath {
	t.Helper()
	spec, err := workload.ParseSpec(specStr)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*relation.Table{}
	for _, l := range w.Listings {
		byName[l.Name] = l
	}
	p := identityPath{name: specStr, eta: eta}
	seen := map[string]bool{}
	add := func(l *relation.Table) bool {
		var on []string
		for _, a := range l.Schema.Names() {
			if seen[a] {
				on = append(on, a)
			}
		}
		if len(p.tables) > 0 && len(on) != 1 {
			return false
		}
		p.tables = append(p.tables, l)
		p.on = append(p.on, on)
		for _, a := range l.Schema.Names() {
			seen[a] = true
		}
		return true
	}
	for _, name := range w.Truth.Path {
		if !add(byName[name]) {
			t.Fatalf("%s: planted step %s does not join on one attribute", specStr, name)
		}
	}
	for _, l := range w.Listings {
		if !slices.Contains(w.Truth.Path, l.Name) {
			add(l)
		}
	}
	return p
}

// TestResampledJoinPathColumnarMatchesUnfused pins the fused re-sample —
// decide on the pairs, compact them, gather once — against the unfused
// oracle: the full join gathered, then CorrelatedSampleColumnar. Results,
// stats and every published prefix-cache entry must be identical for η off
// and on, every ρ regime, NULL join keys, and every worker count (the large
// chain crosses the parallel-kernel threshold), with and without scratch.
// Every hop is published when η = 0, every hop but the terminal one when
// η > 0.
func TestResampledJoinPathColumnarMatchesUnfused(t *testing.T) {
	// One scratch across every case, so each run takes buffers an earlier
	// run left dirty.
	scr := relation.NewScratch(relation.NewSchemaMemo(64))
	paths := append(tpchIdentityPaths(t),
		workloadIdentityPath(t, "star:4", 200),
		workloadIdentityPath(t, "chain:3,decoys=3", 200),
		workloadIdentityPath(t, "chain:3,decoys=3,rows=40000", 5000))
	rng := rand.New(rand.NewSource(17))
	for pi, p := range paths {
		nullFracs, etas := []float64{0, 0.1}, []int{0, p.eta}
		if pi == len(paths)-1 {
			// The large chain is there for the parallel kernels and is slow
			// under -race: NULL keys and η on only.
			nullFracs, etas = nullFracs[1:], etas[1:]
		}
		for _, nullFrac := range nullFracs {
			steps := make([]sampling.ColumnarStep, len(p.tables))
			for i, tab := range p.tables {
				if nullFrac > 0 {
					var on []string
					on = append(on, p.on[i]...)
					if i+1 < len(p.on) {
						on = append(on, p.on[i+1]...)
					}
					tab = withNullKeys(rng, tab, on, nullFrac)
				}
				steps[i] = sampling.ColumnarStep{C: relation.ToColumnar(tab), On: p.on[i], ID: fmt.Sprint(i)}
				if i > 0 {
					idx, err := steps[i].C.BuildJoinIndex(p.on[i]...)
					if err != nil {
						t.Fatal(err)
					}
					steps[i].Index = idx
				}
			}
			for _, eta := range etas {
				for _, rate := range []float64{0, 0.3, 1} {
					opts := sampling.PathJoinOptions{Eta: eta, ResampleRate: rate, Hasher: sampling.NewHasher(uint64(eta) + 11)}
					inter, wantStats := unfusedPath(t, steps, opts)
					if eta > 0 && len(steps) > 2 && !slices.Contains(wantStats.Resampled, true) {
						t.Fatalf("%s: η=%d never trips (sizes %v)", p.name, eta, wantStats.IntermediateSizes)
					}
					keys := sampling.PrefixKeys(steps, opts)
					published := len(steps) - 1
					if eta > 0 {
						published-- // never the terminal join
					}
					for _, workers := range []int{1, 2, 8} {
						for _, s := range []*relation.Scratch{nil, scr} {
							what := fmt.Sprintf("%s null=%v η=%d ρ=%v workers=%d scratch=%v", p.name, nullFrac, eta, rate, workers, s != nil)
							opts.Workers = workers
							cache := &recordingCache{m: map[string]*relation.Columnar{}}
							got, stats, err := sampling.ResampledJoinPathScratch(steps, opts, cache, s)
							if err != nil {
								t.Fatalf("%s: %v", what, err)
							}
							assertColumnarIdentical(t, what, inter[len(inter)-1], got)
							s.Release(got)
							if !slices.Equal(stats.IntermediateSizes, wantStats.IntermediateSizes) ||
								!slices.Equal(stats.Resampled, wantStats.Resampled) {
								t.Fatalf("%s: stats %+v, want %+v", what, stats, wantStats)
							}
							if cache.puts != published {
								t.Fatalf("%s: %d prefix-cache puts, want %d", what, cache.puts, published)
							}
							for i := 1; i < len(steps); i++ {
								entry, ok := cache.m[keys[i]]
								if i > published {
									if ok {
										t.Fatalf("%s: terminal prefix %d published", what, i)
									}
									continue
								}
								if !ok {
									t.Fatalf("%s: prefix %d not published", what, i)
								}
								assertColumnarIdentical(t, fmt.Sprintf("%s prefix %d", what, i), inter[i], entry)
							}
						}
					}
				}
			}
		}
	}
}
