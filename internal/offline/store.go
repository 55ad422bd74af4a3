// Package offline holds DANCE's offline-phase state: the correlated samples
// bought from the marketplace, versioned and merged incrementally.
//
// The paper's online phase escalates the sampling rate when no feasible plan
// exists. Because marketplace samples are delivered in the canonical
// hash-unit order (internal/marketplace/index.go), a rate-ρ sample is a
// strict *prefix* of the rate-ρ′ sample for any ρ < ρ′ — so an escalation
// needs only the delta rows with unit in (ρ, ρ′], appended in place. The
// SampleStore materializes this: each dataset's sample is held once, as its
// dictionary encoding (relation.Columnar), and extended copy-on-write by
// appending the delta's rows; every change bumps the dataset's version, and
// Snapshot exposes immutable views that searches keep using while the next
// escalation merges. Row tables appear only at the edges: purchases arrive
// as rows and are encoded on arrival, and the persist journal is written
// from the decoded encoding.
//
// A dataset whose rows and FDs did not change across a round — an empty
// delta — keeps its version, so the middleware can skip re-journaling it.
// Search-layer caches do not read versions: each rebuilt join graph gets
// a fresh searcher.
package offline

import (
	"fmt"
	"sync"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/relation"
)

// Dataset is the immutable per-dataset offline state at some version. Its
// sample is Cols, kept bit-identical to encoding the merged rows from
// scratch (relation.Columnar.AppendTable preserves first-appearance code
// order across merges).
type Dataset struct {
	// Name is the marketplace listing name.
	Name string
	// JoinAttrs are the attributes the sample was correlated on. Deltas
	// must be fetched on the same attributes, or the hash domains differ.
	JoinAttrs []string
	// Seed is the hash seed of the correlated sampling run.
	Seed uint64
	// Rate is the sampling rate the rows cover.
	Rate float64
	// Version increases whenever the dataset's rows or FDs change; the
	// middleware re-journals a dataset only when it moved.
	Version uint64
	// FullRows is the marketplace-reported cardinality of the full
	// instance.
	FullRows int
	// FDs are the dataset's declared or discovered AFDs.
	FDs []fd.FD
	// Cols is the merged dictionary-encoded sample.
	Cols *relation.Columnar
}

// Snapshot is an immutable view of the whole store at one state version.
// Searches run against a snapshot while the store merges the next round.
type Snapshot struct {
	// Rate is the last committed store-wide sampling rate.
	Rate float64

	order    []string
	datasets map[string]*Dataset
}

// Dataset returns the named dataset's state, or nil.
func (s *Snapshot) Dataset(name string) *Dataset {
	if s == nil {
		return nil
	}
	return s.datasets[name]
}

// Datasets returns all datasets in first-registration order.
func (s *Snapshot) Datasets() []*Dataset {
	if s == nil {
		return nil
	}
	out := make([]*Dataset, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, s.datasets[name])
	}
	return out
}

// SampleStore is the versioned, copy-on-write store behind the offline
// phase. All methods are safe for concurrent use, though the middleware
// serializes writers behind its offline mutex anyway; Snapshot may be
// called from any goroutine at any time.
type SampleStore struct {
	mu       sync.Mutex          // lockorder: leaf
	version  uint64              // guarded by mu
	rate     float64             // guarded by mu
	order    []string            // guarded by mu
	datasets map[string]*Dataset // guarded by mu
}

// NewSampleStore returns an empty store.
func NewSampleStore() *SampleStore {
	return &SampleStore{datasets: make(map[string]*Dataset)}
}

// Snapshot returns an immutable view of the current state. The returned
// maps and Dataset values are never mutated afterwards — writers install
// fresh Dataset values and fresh maps.
func (s *SampleStore) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := &Snapshot{
		Rate:     s.rate,
		order:    append([]string(nil), s.order...),
		datasets: make(map[string]*Dataset, len(s.datasets)),
	}
	for k, v := range s.datasets {
		snap.datasets[k] = v
	}
	return snap
}

// install publishes a new dataset state under the next version. Caller
// holds s.mu.
func (s *SampleStore) installLocked(d *Dataset) {
	s.version++
	d.Version = s.version
	if _, exists := s.datasets[d.Name]; !exists {
		s.order = append(s.order, d.Name)
	}
	s.datasets[d.Name] = d
}

// Replace installs a complete sample for a dataset, discarding any previous
// state — the full-purchase path (first round, or a dataset whose sampling
// parameters changed).
func (s *SampleStore) Replace(name string, t *relation.Table, joinAttrs []string, seed uint64, rate float64, fullRows int) *Dataset {
	d := &Dataset{
		Name:      name,
		JoinAttrs: append([]string(nil), joinAttrs...),
		Seed:      seed,
		Rate:      rate,
		FullRows:  fullRows,
		Cols:      relation.ToColumnar(t),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.installLocked(d)
	return d
}

// Extend merges a delta purchase — the rows with sampling unit in
// (d.Rate, toRate] in canonical order — onto the dataset's current state,
// copy-on-write: existing snapshots keep the old Dataset untouched. An
// empty delta updates the covered rate and cardinality but keeps the rows,
// the columnar encoding and the version.
func (s *SampleStore) Extend(name string, delta *relation.Table, toRate float64, fullRows int) (*Dataset, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.datasets[name]
	if !ok {
		return nil, fmt.Errorf("offline: extend of unknown dataset %q", name)
	}
	if toRate < old.Rate {
		return nil, fmt.Errorf("offline: extend of %q from rate %v down to %v", name, old.Rate, toRate)
	}
	if delta.NumRows() == 0 {
		// Nothing changed: same rows, same version — but the state now
		// covers the higher rate.
		d := *old
		d.Rate = toRate
		d.FullRows = fullRows
		s.datasets[name] = &d
		return &d, nil
	}
	cols, err := old.Cols.AppendTable(delta)
	if err != nil {
		return nil, fmt.Errorf("offline: extend %q: %w", name, err)
	}
	d := &Dataset{
		Name:      name,
		JoinAttrs: old.JoinAttrs,
		Seed:      old.Seed,
		Rate:      toRate,
		FullRows:  fullRows,
		FDs:       old.FDs,
		Cols:      cols,
	}
	s.installLocked(d)
	return d, nil
}

// SetFDs updates a dataset's AFDs. The version bumps only when the set
// actually changed, so re-publishing identical FDs every round leaves
// nothing to re-journal. The stored slice is always non-nil
// once SetFDs has run, so "FDs were resolved (possibly to none)" is
// distinguishable from "never resolved" — the middleware uses that to skip
// re-discovery over unchanged rows even when discovery found nothing.
func (s *SampleStore) SetFDs(name string, fds []fd.FD) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.datasets[name]
	if !ok {
		return fmt.Errorf("offline: FDs for unknown dataset %q", name)
	}
	if old.FDs != nil && fdsEqual(old.FDs, fds) {
		return nil
	}
	copied := make([]fd.FD, len(fds))
	copy(copied, fds)
	d := *old
	d.FDs = copied
	if old.FDs == nil && len(copied) == 0 {
		// First resolution, to an empty set: record the non-nil marker
		// without a version bump — nothing metric-visible changed.
		s.datasets[name] = &d
		return nil
	}
	s.installLocked(&d)
	return nil
}

// CommitRate records the store-wide sampling rate after a round's merges.
func (s *SampleStore) CommitRate(rate float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rate = rate
}

// Retain drops every dataset not in keep — listings that left the catalog.
func (s *SampleStore) Retain(keep map[string]bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var order []string
	for _, name := range s.order {
		if keep[name] {
			order = append(order, name)
			continue
		}
		delete(s.datasets, name)
	}
	s.order = order
}

func fdsEqual(a, b []fd.FD) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}
