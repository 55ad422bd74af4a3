// Package sampling implements the paper's Section 3: correlated sampling of
// marketplace instances (Vengerov et al., the paper's [30]) and correlated
// re-sampling of intermediate join results, plus sample-based estimators for
// join informativeness, correlation, and quality.
//
// Correlated sampling hashes the join-attribute value of each tuple to a
// uniform point in [0, 1) and keeps the tuple when the hash is at most the
// sampling rate p. Because the same hash function is used on every instance,
// a join value is either kept in all instances or dropped from all of them,
// which preserves join structure and makes the estimators of Theorems 3.1
// and 3.2 unbiased in expectation over hash seeds.
package sampling

import (
	"fmt"
	"math"
	"sort"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/infotheory"
	"github.com/dance-db/dance/internal/relation"
)

// Hasher maps join-attribute tuples to uniform points in [0, 1).
// Different seeds give independent sampling runs.
type Hasher struct {
	seed uint64
}

// NewHasher returns a Hasher for the given seed.
func NewHasher(seed uint64) Hasher { return Hasher{seed: seed} }

// Seed returns the hasher's seed. Two hashers with equal seeds produce
// identical samples, which is what memoizing evaluators key on.
func (h Hasher) Seed() uint64 { return h.seed }

// FNV-1a constants (hash/fnv), inlined so Unit never allocates a hasher.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Unit hashes key to [0, 1). The FNV-1a loop is inlined — hash/fnv's
// New64a allocated on every tuple, and Unit runs once per row per sampled
// instance. The output is bit-identical to the previous hash/fnv-based
// implementation (pinned by TestHasherUnitMatchesFNVReference): sample
// identity is part of evaluator cache keys, so it must never drift.
func (h Hasher) Unit(key []byte) float64 {
	x := uint64(fnvOffset64)
	s := h.seed
	for i := 0; i < 8; i++ { // seed bytes, little-endian, as Write saw them
		x ^= s & 0xff
		x *= fnvPrime64
		s >>= 8
	}
	for _, b := range key {
		x ^= uint64(b)
		x *= fnvPrime64
	}
	// FNV-1a mixes trailing bytes only into the low bits; finalize with
	// murmur3's fmix64 so every input bit affects the high bits that
	// dominate the float mantissa.
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return float64(x) / float64(math.MaxUint64)
}

// CorrelatedSample keeps each row of t whose join-attribute tuple hashes to
// at most rate. rate ≥ 1 returns a copy of t; rate ≤ 0 returns an empty
// table. NULL join values are never sampled (they cannot join).
func CorrelatedSample(t *relation.Table, joinAttrs []string, rate float64, h Hasher) (*relation.Table, error) {
	if rate >= 1 {
		return t.Clone(), nil
	}
	out := relation.NewTable(t.Name, t.Schema)
	if rate <= 0 {
		return out, nil
	}
	idx, err := t.Schema.Indexes(joinAttrs...)
	if err != nil {
		return nil, fmt.Errorf("correlated sample of %s: %w", t.Name, err)
	}
	var buf []byte
	for _, r := range t.Rows {
		null := false
		for _, c := range idx {
			if r[c].IsNull() {
				null = true
				break
			}
		}
		if null {
			continue
		}
		buf = relation.EncodeKey(buf[:0], r, idx)
		if h.Unit(buf) <= rate {
			out.Rows = append(out.Rows, r)
		}
	}
	return out, nil
}

// CorrelatedSampleRange keeps each row of t whose join-attribute tuple
// hashes into (from, to] — with from ≤ 0 meaning [0, to] — and returns the
// kept rows ordered by (hash unit, original position). This is the
// marketplace's *canonical* sample order: because every rate-ρ sample is
// sorted by hash unit, it is exactly the leading rows of the rate-ρ′ sample
// for any ρ < ρ′, so a delta purchase (from = ρ, to = ρ′) appended to an
// existing sample reproduces the fresh rate-ρ′ sample bit for bit — rows,
// dictionary codes, and metric summation order.
//
// Rows whose join attributes contain NULL have no hash unit (they cannot
// join); they are delivered only when to ≥ 1 — a rate-1 sample is the
// complete instance — and sort after every hashed row, in original order.
func CorrelatedSampleRange(t *relation.Table, joinAttrs []string, from, to float64, h Hasher) (*relation.Table, error) {
	out := relation.NewTable(t.Name, t.Schema)
	if to <= 0 || (from > 0 && from >= to) {
		return out, nil
	}
	idx, err := t.Schema.Indexes(joinAttrs...)
	if err != nil {
		return nil, fmt.Errorf("correlated sample of %s: %w", t.Name, err)
	}
	var units []float64
	var buf []byte
	for _, r := range t.Rows {
		null := false
		for _, c := range idx {
			if r[c].IsNull() {
				null = true
				break
			}
		}
		if null {
			if to >= 1 {
				units = append(units, math.Inf(1))
				out.Rows = append(out.Rows, r)
			}
			continue
		}
		buf = relation.EncodeKey(buf[:0], r, idx)
		u := h.Unit(buf)
		if u <= to && (from <= 0 || u > from) {
			units = append(units, u)
			out.Rows = append(out.Rows, r)
		}
	}
	// Sort a permutation, not the rows in place: the comparator must read
	// each row's unit through its *original* position. Stable, so rows with
	// equal units (same join tuple, or a hash collision) keep their original
	// relative order — the ordering is a total, deterministic function of
	// the table and the seed.
	perm := make([]int, len(out.Rows))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return units[perm[a]] < units[perm[b]] })
	sorted := make([][]relation.Value, len(out.Rows))
	for i, p := range perm {
		sorted[i] = out.Rows[p]
	}
	out.Rows = sorted
	return out, nil
}

// SamplePath applies correlated sampling to every table of a join path.
// Table i > 0 is sampled on steps[i].On — the join attributes it shares
// with its predecessor — and the first table is sampled on steps[1].On
// (there is no predecessor). A single-step path is sampled on that step's
// own On set if present, else returned unsampled.
func SamplePath(steps []relation.PathStep, rate float64, h Hasher) ([]relation.PathStep, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("sampling: empty join path")
	}
	out := make([]relation.PathStep, len(steps))
	for i, st := range steps {
		on := st.On
		if i == 0 {
			if len(steps) > 1 {
				on = steps[1].On
			} else {
				on = st.On
			}
		}
		if len(on) == 0 {
			out[i] = relation.PathStep{Table: st.Table.Clone(), On: st.On}
			continue
		}
		s, err := CorrelatedSample(st.Table, on, rate, h)
		if err != nil {
			return nil, err
		}
		out[i] = relation.PathStep{Table: s, On: st.On}
	}
	return out, nil
}

// PathJoinOptions control re-sampled multi-way joins (Sec 3.2).
type PathJoinOptions struct {
	// Eta is the intermediate-join-size threshold η: when an intermediate
	// result exceeds Eta rows it is re-sampled before the next join.
	// Eta ≤ 0 disables re-sampling.
	Eta int
	// ResampleRate is the fixed re-sampling rate ρ applied when the
	// threshold trips.
	ResampleRate float64
	// Hasher drives the correlated re-sampling (hash of the next join
	// attribute value), so downstream joins stay correlated.
	Hasher Hasher
	// Workers bounds the goroutines the columnar join/grouping kernels may
	// use per evaluation (≤ 1: serial). Pure execution tuning: results are
	// bit-identical for every value, so it is deliberately NOT part of
	// CacheKey — two runs differing only in Workers share cache entries.
	Workers int
	// ProjectionTag identifies the column projection the steps of a
	// columnar path join carry (search joins views restricted to a
	// request-wide keep set; "" means unprojected). It is part of every
	// join-prefix key, since equal steps projected differently produce
	// different intermediates, but not of CacheKey: the metrics measured on
	// the join do not depend on columns they never read.
	ProjectionTag string
}

// CacheKey identifies the options up to join-output equivalence: two
// ResampledJoinPath runs over the same steps with equal keys produce
// identical tables, so memoized evaluators must include this key —
// fingerprinting the target graph alone serves stale metrics when Eta,
// ResampleRate or the hasher seed change between requests.
func (o PathJoinOptions) CacheKey() string {
	eta := o.Eta
	if eta <= 0 {
		// All disabled-η options are equivalent: ρ and the hasher are
		// never consulted.
		return "η=off"
	}
	return fmt.Sprintf("η=%d|ρ=%g|h=%d", eta, o.ResampleRate, o.Hasher.Seed())
}

// ResampleStats reports what the re-sampled path join did, for experiment
// output and tests.
type ResampleStats struct {
	IntermediateSizes []int // size after each join, before re-sampling
	Resampled         []bool
}

// ResampledJoinPath joins steps left-to-right like relation.JoinPath, but
// when an intermediate result exceeds opts.Eta rows it is re-sampled with
// the correlated hash on the *next* step's join attributes, bounding
// intermediate sizes while preserving join structure (Sec 3.2).
func ResampledJoinPath(steps []relation.PathStep, opts PathJoinOptions) (*relation.Table, ResampleStats, error) {
	var stats ResampleStats
	if len(steps) == 0 {
		return nil, stats, fmt.Errorf("sampling: empty join path")
	}
	acc := steps[0].Table
	for i := 1; i < len(steps); i++ {
		j, err := relation.EquiJoin(acc, steps[i].Table, steps[i].On)
		if err != nil {
			return nil, stats, err
		}
		stats.IntermediateSizes = append(stats.IntermediateSizes, j.NumRows())
		resampled := false
		// Only re-sample when another join follows and the threshold trips.
		if opts.Eta > 0 && i < len(steps)-1 && j.NumRows() > opts.Eta {
			j2, err := CorrelatedSample(j, steps[i+1].On, opts.ResampleRate, opts.Hasher)
			if err != nil {
				return nil, stats, err
			}
			j = j2
			resampled = true
		}
		stats.Resampled = append(stats.Resampled, resampled)
		acc = j
	}
	return acc, stats, nil
}

// EstimateJI estimates JI(a, b) on join attributes on from correlated
// samples at the given rate (Eq. 6, Theorem 3.1).
func EstimateJI(a, b *relation.Table, on []string, rate float64, h Hasher) (float64, error) {
	sa, err := CorrelatedSample(a, on, rate, h)
	if err != nil {
		return 0, err
	}
	sb, err := CorrelatedSample(b, on, rate, h)
	if err != nil {
		return 0, err
	}
	if sa.NumRows() == 0 && sb.NumRows() == 0 {
		return 0, fmt.Errorf("sampling: JI estimate degenerate, both samples empty (rate %v)", rate)
	}
	ca, err := relation.ToColumnarSubset(sa, on, nil)
	if err != nil {
		return 0, err
	}
	cb, err := relation.ToColumnarSubset(sb, on, nil)
	if err != nil {
		return 0, err
	}
	return infotheory.JoinInformativeness(ca, cb, on)
}

// EstimateCorrelation estimates CORR(x, y) on the join of the path from
// correlated samples at the given rate, with re-sampling per opts (Eq. 7,
// Theorem 3.2). The join and the measure run on the columnar fast path;
// the result is bit-identical to joining the row samples and calling
// infotheory.CorrelationOnRows.
func EstimateCorrelation(steps []relation.PathStep, x, y []string, rate float64, opts PathJoinOptions) (float64, error) {
	sampled, err := SamplePath(steps, rate, opts.Hasher)
	if err != nil {
		return 0, err
	}
	j, _, err := ResampledJoinPathColumnar(columnarizeSteps(sampled), opts, nil)
	if err != nil {
		return 0, err
	}
	if j.NumRows() == 0 {
		return 0, fmt.Errorf("sampling: correlation estimate degenerate, empty join sample (rate %v)", rate)
	}
	return infotheory.CorrelationColumnar(j, x, y)
}

// EstimateQuality estimates Q of Def 2.3 on the join of the path from
// correlated samples at the given rate (Eq. 8, Theorem 3.2), on the
// columnar fast path.
func EstimateQuality(steps []relation.PathStep, fds []fd.FD, rate float64, opts PathJoinOptions) (float64, error) {
	sampled, err := SamplePath(steps, rate, opts.Hasher)
	if err != nil {
		return 0, err
	}
	j, _, err := ResampledJoinPathColumnar(columnarizeSteps(sampled), opts, nil)
	if err != nil {
		return 0, err
	}
	if j.NumRows() == 0 {
		return 0, fmt.Errorf("sampling: quality estimate degenerate, empty join sample (rate %v)", rate)
	}
	return fd.QualitySetColumnar(j, fds)
}
