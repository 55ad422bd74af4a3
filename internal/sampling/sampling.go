// Package sampling implements the paper's Section 3: correlated sampling of
// marketplace instances (Vengerov et al., the paper's [30]) and correlated
// re-sampling of intermediate join results.
//
// Correlated sampling hashes the join-attribute value of each tuple to a
// uniform point in [0, 1) and keeps the tuple when the hash is at most the
// sampling rate p. Because the same hash function is used on every instance,
// a join value is either kept in all instances or dropped from all of them,
// which preserves join structure and makes the estimates of Theorems 3.1
// and 3.2 — JI, CORR and Q measured on the joined samples — unbiased in
// expectation over hash seeds.
//
// The kernels run on dictionary-coded relation.Columnar data (columnar.go).
// The marketplace seller defines the canonical order in which samples are
// delivered (internal/marketplace/index.go); this package supplies the
// Hasher both sides rank by.
package sampling

import (
	"fmt"
	"math"
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
}

// CacheKey identifies the options up to join-output equivalence: two
// ResampledJoinPathColumnar runs over the same steps with equal keys produce
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
