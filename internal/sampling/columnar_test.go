package sampling

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"github.com/dance-db/dance/internal/relation"
)

// referenceUnit is the seed-era hash/fnv implementation of Hasher.Unit.
// Sample identity is part of evaluator cache keys, so the inlined FNV-1a
// loop must reproduce it bit for bit.
func referenceUnit(seed uint64, key []byte) float64 {
	f := fnv.New64a()
	var seedBytes [8]byte
	for i := 0; i < 8; i++ {
		seedBytes[i] = byte(seed >> (8 * i))
	}
	f.Write(seedBytes[:])
	f.Write(key)
	x := f.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return float64(x) / float64(math.MaxUint64)
}

func TestHasherUnitMatchesFNVReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	seeds := []uint64{0, 1, 7, 0xDEADBEEF, math.MaxUint64}
	for _, seed := range seeds {
		h := NewHasher(seed)
		if got, want := h.Unit(nil), referenceUnit(seed, nil); got != want {
			t.Fatalf("seed %d, empty key: %v, want %v", seed, got, want)
		}
		for trial := 0; trial < 80; trial++ {
			key := make([]byte, rng.Intn(40))
			rng.Read(key)
			if got, want := h.Unit(key), referenceUnit(seed, key); got != want {
				t.Fatalf("seed %d key %v: %v, want %v", seed, key, got, want)
			}
		}
	}
}

func randomStepTable(rng *rand.Rand, name string, nRows int, nullFrac float64) *relation.Table {
	tab := relation.NewTable(name, relation.NewSchema(
		relation.Cat("j1", relation.KindInt),
		relation.Cat("j2", relation.KindFloat), // mixed int/float join key
		relation.Cat(name+"_p", relation.KindString),
	))
	for i := 0; i < nRows; i++ {
		row := make([]relation.Value, 3)
		if rng.Float64() >= nullFrac {
			row[0] = relation.IntValue(int64(rng.Intn(8)))
		}
		x := rng.Intn(5)
		if rng.Float64() >= nullFrac {
			if rng.Intn(2) == 0 {
				row[1] = relation.IntValue(int64(x))
			} else {
				row[1] = relation.FloatValue(float64(x))
			}
		}
		row[2] = relation.StringValue(string(rune('a' + rng.Intn(6))))
		tab.Append(row)
	}
	return tab
}

func assertTablesEqual(t *testing.T, want, got *relation.Table) {
	t.Helper()
	if !want.Schema.Equal(got.Schema) {
		t.Fatalf("schema mismatch: want %v, got %v", want.Schema, got.Schema)
	}
	if want.NumRows() != got.NumRows() {
		t.Fatalf("row count mismatch: want %d, got %d", want.NumRows(), got.NumRows())
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if !want.Rows[i][j].EqualValue(got.Rows[i][j]) {
				t.Fatalf("row %d col %d: want %v, got %v", i, j, want.Rows[i][j], got.Rows[i][j])
			}
		}
	}
}

func TestCorrelatedSampleColumnarMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 8; trial++ {
		tab := randomStepTable(rng, "t", 50+rng.Intn(200), 0.3)
		h := NewHasher(uint64(trial))
		for _, on := range [][]string{{"j1"}, {"j2"}, {"j1", "j2"}} {
			for _, rate := range []float64{0, 0.25, 0.6, 1} {
				want, err := correlatedSample(tab, on, rate, h)
				if err != nil {
					t.Fatal(err)
				}
				got, err := CorrelatedSampleColumnar(relation.ToColumnar(tab), on, rate, h)
				if err != nil {
					t.Fatal(err)
				}
				assertTablesEqual(t, want, got.ToTable())
			}
		}
	}
}

// mapPrefixCache is a minimal PrefixCache for equivalence tests.
type mapPrefixCache struct {
	m          map[string]*relation.Columnar
	hits, puts int
}

func (c *mapPrefixCache) Get(key string) (*relation.Columnar, bool) {
	v, ok := c.m[key]
	if ok {
		c.hits++
	}
	return v, ok
}

func (c *mapPrefixCache) Put(key string, v *relation.Columnar) {
	c.m[key] = v
	c.puts++
}

func TestResampledJoinPathColumnarMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 6; trial++ {
		steps := []relation.PathStep{
			{Table: randomStepTable(rng, "t0", 60+rng.Intn(100), 0.25)},
			{Table: randomStepTable(rng, "t1", 60+rng.Intn(100), 0.25), On: []string{"j1"}},
			{Table: randomStepTable(rng, "t2", 60+rng.Intn(100), 0.25), On: []string{"j2"}},
			{Table: randomStepTable(rng, "t3", 60+rng.Intn(100), 0.25), On: []string{"j1"}},
		}
		for _, opts := range []PathJoinOptions{
			{},
			{Eta: 150, ResampleRate: 0.5, Hasher: NewHasher(uint64(trial) + 7)},
			{Eta: 20, ResampleRate: 0.3, Hasher: NewHasher(uint64(trial) + 9)},
		} {
			want, wantStats, err := resampledJoinPath(steps, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, gotStats, err := ResampledJoinPathColumnar(columnarizeSteps(steps), opts, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertTablesEqual(t, want, got.ToTable())
			if len(wantStats.IntermediateSizes) != len(gotStats.IntermediateSizes) {
				t.Fatalf("stats length mismatch: %v vs %v", wantStats, gotStats)
			}
			for i := range wantStats.IntermediateSizes {
				if wantStats.IntermediateSizes[i] != gotStats.IntermediateSizes[i] ||
					wantStats.Resampled[i] != gotStats.Resampled[i] {
					t.Fatalf("stats mismatch at %d: %v vs %v", i, wantStats, gotStats)
				}
			}
		}
	}
}

// TestResampledJoinPathColumnarPrefixCache pins which prefixes a path
// publishes and reuses: every hop when η = 0, every hop but the terminal
// one when η > 0 (no longer path shares a terminal key, and a repeated
// target graph is answered by the evaluation memo first). Cached or not,
// and with or without scratch, every run returns the uncached join.
func TestResampledJoinPathColumnarPrefixCache(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	mkSteps := func() []ColumnarStep {
		steps := []ColumnarStep{
			{C: relation.ToColumnar(randomStepTable(rng, "t0", 120, 0.2)), ID: "0"},
			{C: relation.ToColumnar(randomStepTable(rng, "t1", 120, 0.2)), On: []string{"j1"}, ID: "1"},
			{C: relation.ToColumnar(randomStepTable(rng, "t2", 120, 0.2)), On: []string{"j2"}, ID: "2"},
		}
		return steps
	}
	scr := relation.NewScratch(relation.NewSchemaMemo(16))
	for _, tc := range []struct {
		opts PathJoinOptions
		// Puts of the cold run, the warm rerun and the run of a path
		// forked in its last step; joins the warm rerun performs.
		coldPuts, warmPuts, forkPuts, warmJoins int
	}{
		{opts: PathJoinOptions{}, coldPuts: 2, warmPuts: 0, forkPuts: 1, warmJoins: 0},
		// The fork joins its last step on other attributes, so with η > 0
		// its first hop has a key of its own (re-sampled for the new next
		// hop): one put, and still none for the terminal.
		{opts: PathJoinOptions{Eta: 60, ResampleRate: 0.5, Hasher: NewHasher(41)}, coldPuts: 1, warmPuts: 0, forkPuts: 1, warmJoins: 1},
	} {
		opts := tc.opts
		steps := mkSteps()
		keys := prefixKeys(steps, opts)
		plain, _, err := ResampledJoinPathColumnar(steps, opts, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		cache := &mapPrefixCache{m: map[string]*relation.Columnar{}}
		first, _, err := ResampledJoinPathColumnar(steps, opts, cache, scr)
		if err != nil {
			t.Fatal(err)
		}
		assertTablesEqual(t, plain.ToTable(), first.ToTable())
		scr.Release(first)
		if cache.hits != 0 || cache.puts != tc.coldPuts {
			t.Fatalf("η=%d cold run: %d hits, %d puts; want 0, %d", opts.Eta, cache.hits, cache.puts, tc.coldPuts)
		}
		if _, ok := cache.m[keys[2]]; ok != (opts.Eta == 0) {
			t.Fatalf("η=%d: terminal prefix published = %v", opts.Eta, ok)
		}

		// The rerun reuses the longest published prefix and returns the
		// same table.
		cache.hits, cache.puts = 0, 0
		second, stats, err := ResampledJoinPathColumnar(steps, opts, cache, scr)
		if err != nil {
			t.Fatal(err)
		}
		if cache.hits != 1 || cache.puts != tc.warmPuts || len(stats.IntermediateSizes) != tc.warmJoins {
			t.Fatalf("η=%d warm run: %d hits, %d puts, stats %v; want 1, %d, %d joins",
				opts.Eta, cache.hits, cache.puts, stats, tc.warmPuts, tc.warmJoins)
		}
		assertTablesEqual(t, plain.ToTable(), second.ToTable())
		scr.Release(second)

		// A path that diverges in its last step must reuse only the shared
		// prefix and still agree with the uncached computation.
		forked := append([]ColumnarStep(nil), steps...)
		forked[2] = ColumnarStep{C: relation.ToColumnar(randomStepTable(rng, "t2b", 120, 0.2)), On: []string{"j1"}, ID: "2b"}
		wantFork, _, err := ResampledJoinPathColumnar(forked, opts, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		cache.puts = 0
		gotFork, _, err := ResampledJoinPathColumnar(forked, opts, cache, scr)
		if err != nil {
			t.Fatal(err)
		}
		if cache.puts != tc.forkPuts {
			t.Fatalf("η=%d fork: %d puts, want %d", opts.Eta, cache.puts, tc.forkPuts)
		}
		assertTablesEqual(t, wantFork.ToTable(), gotFork.ToTable())
		scr.Release(gotFork)
	}
}

// TestPrefixKeysDisambiguateEta pins that, with re-sampling enabled, a path
// prefix that ends at step i does not share cache state with one that
// continues past it (the intermediate is re-sampled on the next hop's join
// attributes).
func TestPrefixKeysDisambiguateEta(t *testing.T) {
	c := relation.ToColumnar(relation.NewTable("x", relation.NewSchema(relation.Cat("j1", relation.KindInt))))
	short := []ColumnarStep{{C: c, ID: "0"}, {C: c, On: []string{"j1"}, ID: "1"}}
	long := []ColumnarStep{{C: c, ID: "0"}, {C: c, On: []string{"j1"}, ID: "1"}, {C: c, On: []string{"j1"}, ID: "2"}}
	opts := PathJoinOptions{Eta: 1, ResampleRate: 0.5, Hasher: NewHasher(1)}
	ks := prefixKeys(short, opts)
	kl := prefixKeys(long, opts)
	if ks[1] == kl[1] {
		t.Fatal("terminal and non-terminal prefixes must have distinct keys when η > 0")
	}
	// Without re-sampling the prefix is shareable.
	opts.Eta = 0
	if prefixKeys(short, opts)[1] != prefixKeys(long, opts)[1] {
		t.Fatal("η = 0 prefixes should share keys")
	}
}

// TestPrefixKeysDoNotAlias pins the join-prefix keys against hostile names:
// step "b@1" joined on a column named "5@x" and a listing "b@1" at version
// 5 (step ID "b@1@5") joined on "x" once rendered the same key, so one path
// was served the other's intermediate. Keys are length-prefixed now.
func TestPrefixKeysDoNotAlias(t *testing.T) {
	left := relation.NewTable("a", relation.NewSchema(
		relation.Cat("5@x", relation.KindInt), relation.Cat("x", relation.KindInt)))
	byOdd := relation.NewTable("b", relation.NewSchema(
		relation.Cat("5@x", relation.KindInt), relation.Cat("p", relation.KindString)))
	byX := relation.NewTable("b", relation.NewSchema(
		relation.Cat("x", relation.KindInt), relation.Cat("p", relation.KindString)))
	for i := 0; i < 6; i++ {
		left.Append([]relation.Value{relation.IntValue(int64(i)), relation.IntValue(int64(i % 2))})
		byOdd.Append([]relation.Value{relation.IntValue(int64(i)), relation.StringValue("odd")})
		byX.Append([]relation.Value{relation.IntValue(int64(i % 3)), relation.StringValue("x")})
	}
	a := relation.ToColumnar(left)
	pathOdd := []ColumnarStep{{C: a, ID: "a"}, {C: relation.ToColumnar(byOdd), On: []string{"5@x"}, ID: "b@1"}}
	pathX := []ColumnarStep{{C: a, ID: "a"}, {C: relation.ToColumnar(byX), On: []string{"x"}, ID: "b@1@5"}}
	for _, opts := range []PathJoinOptions{{}, {Eta: 1, ResampleRate: 0.5, Hasher: NewHasher(3)}} {
		if prefixKeys(pathOdd, opts)[1] == prefixKeys(pathX, opts)[1] {
			t.Fatalf("opts %s: distinct paths share a prefix key", opts.CacheKey())
		}
		cache := &mapPrefixCache{m: map[string]*relation.Columnar{}}
		if _, _, err := ResampledJoinPathColumnar(pathOdd, opts, cache, nil); err != nil {
			t.Fatal(err)
		}
		want, _, err := ResampledJoinPathColumnar(pathX, opts, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := ResampledJoinPathColumnar(pathX, opts, cache, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cache.hits != 0 {
			t.Fatalf("opts %s: path served another path's intermediate", opts.CacheKey())
		}
		assertTablesEqual(t, want.ToTable(), got.ToTable())
	}
}
