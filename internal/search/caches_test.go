package search

import (
	"testing"

	"github.com/dance-db/dance/internal/joingraph"
	"github.com/dance-db/dance/internal/pricing"
	"github.com/dance-db/dance/internal/relation"
)

// rebuildGraph builds the scenario graph with explicit per-instance
// versions (and optionally a mutated tgt1 sample), imitating what the
// incremental offline store hands the searcher after an escalation.
func rebuildGraph(t *testing.T, seed int64, versions map[string]uint64, mutate func(map[string]*relation.Table)) (*joingraph.Graph, map[string]*relation.Table) {
	t.Helper()
	insts, tables := scenario(seed)
	if mutate != nil {
		mutate(tables)
		for _, inst := range insts {
			inst.Sample = tables[inst.Name]
		}
	}
	for _, inst := range insts {
		inst.Version = versions[inst.Name]
	}
	g, err := joingraph.Build(insts, joingraph.Config{
		Quoter: &testQuoter{model: pricing.Cached(pricing.DefaultEntropyModel()), tables: tables},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, tables
}

// TestSharedCachesVersionedInvalidation pins the per-dataset-version cache
// keying: a cache set shared across two searchers must keep serving entries
// for unchanged (same-version) instances, and must NOT serve stale metrics
// once an instance's sample changed under a bumped version.
func TestSharedCachesVersionedInvalidation(t *testing.T) {
	caches := NewCaches()
	v1 := map[string]uint64{"mid1": 1, "mid2": 2, "tgt1": 3, "tgt2": 4}

	g1, _ := rebuildGraph(t, 3, v1, nil)
	s1 := NewSearcherWithCaches(g1, caches)
	req := baseRequest()
	res1, err := s1.Heuristic(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	warm := caches.eval.Len()
	if warm == 0 {
		t.Fatal("no evaluations were cached")
	}

	// Same versions, new Searcher: everything hits, nothing re-evaluates.
	g2, _ := rebuildGraph(t, 3, v1, nil)
	s2 := NewSearcherWithCaches(g2, caches)
	res2, err := s2.Heuristic(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if caches.eval.Len() != warm {
		t.Fatalf("same-version rebuild re-evaluated: cache %d → %d", warm, caches.eval.Len())
	}
	if fingerprint(res1.TG) != fingerprint(res2.TG) || res1.Est != res2.Est {
		t.Fatal("same-version rebuild changed the result")
	}

	// Bump tgt1's version with a *changed* sample: evaluations touching
	// tgt1 must be redone (the cache grows), and the metrics reflect the
	// new data rather than the cached old values.
	v2 := map[string]uint64{"mid1": 1, "mid2": 2, "tgt1": 30, "tgt2": 4}
	g3, _ := rebuildGraph(t, 3, v2, func(tables map[string]*relation.Table) {
		tgt1 := tables["tgt1"]
		// Rewrite yval so every key3 maps to the same label: correlation
		// through the tgt1 chain collapses.
		for i := range tgt1.Rows {
			tgt1.Rows[i][1] = relation.StringValue("same")
		}
	})
	s3 := NewSearcherWithCaches(g3, caches)
	res3, err := s3.Heuristic(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if caches.eval.Len() == warm {
		t.Fatal("bumped version served stale cached evaluations")
	}
	if res3.Est.Correlation >= res1.Est.Correlation {
		t.Fatalf("stale metrics: correlation %v should drop below %v after tgt1 degraded",
			res3.Est.Correlation, res1.Est.Correlation)
	}

	// Sanity: a *fresh* cache on the degraded graph agrees with s3 — the
	// shared cache did not contaminate the new evaluation.
	s4 := NewSearcher(g3)
	res4, err := s4.Heuristic(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if res4.Est != res3.Est {
		t.Fatalf("shared-cache result %+v != fresh-cache result %+v", res3.Est, res4.Est)
	}
}

// TestRetainPrunesProjectedViews pins that Retain drops the projected views
// (and encodings and join indexes) of superseded instance versions, and
// keeps every live instance's state.
func TestRetainPrunesProjectedViews(t *testing.T) {
	caches := NewCaches()
	v1 := map[string]uint64{"mid1": 1, "mid2": 2, "tgt1": 3, "tgt2": 4}
	g1, _ := rebuildGraph(t, 3, v1, nil)
	if _, err := NewSearcherWithCaches(g1, caches).Heuristic(bg, baseRequest()); err != nil {
		t.Fatal(err)
	}
	v2 := map[string]uint64{"mid1": 1, "mid2": 2, "tgt1": 30, "tgt2": 4}
	g2, _ := rebuildGraph(t, 3, v2, nil)
	s2 := NewSearcherWithCaches(g2, caches)
	if _, err := s2.Heuristic(bg, baseRequest()); err != nil {
		t.Fatal(err)
	}
	viewInsts := func() map[string]bool {
		caches.views.mu.RLock()
		defer caches.views.mu.RUnlock()
		out := map[string]bool{}
		for k := range caches.views.m {
			out[k.inst] = true
		}
		return out
	}
	dead := g1.Instances[g1.InstanceIndex("tgt1")].CacheKey()
	live := s2.instKey[g2.InstanceIndex("tgt1")]
	if before := viewInsts(); !before[dead] || !before[live] {
		t.Fatalf("expected views of both %s and %s before pruning, have %v", dead, live, before)
	}
	caches.RetainInstances(s2)
	after := viewInsts()
	if after[dead] {
		t.Fatalf("Retain kept projected views of dead instance %s", dead)
	}
	for _, k := range s2.instKey {
		if !after[k] {
			t.Fatalf("Retain dropped projected views of live instance %s (have %v)", k, after)
		}
	}
}

// TestSearcherReusesBuildEncoding pins that evaluation reads the encoding
// joingraph.Build stored on each instance: every projected view the search
// cached shares its columns' codes and dictionaries with that encoding by
// pointer, so no sample is encoded twice.
func TestSearcherReusesBuildEncoding(t *testing.T) {
	g, _ := rebuildGraph(t, 3, nil, nil)
	s := NewSearcher(g)
	if _, err := s.Heuristic(bg, baseRequest()); err != nil {
		t.Fatal(err)
	}
	byKey := map[string]*relation.Columnar{}
	for v, inst := range g.Instances {
		if inst.Columnar == nil {
			t.Fatalf("instance %s has no encoding after Build", inst.Name)
		}
		byKey[s.instKey[v]] = inst.Columnar
	}
	s.caches.views.mu.RLock()
	defer s.caches.views.mu.RUnlock()
	if len(s.caches.views.m) == 0 {
		t.Fatal("the search cached no projected views")
	}
	for key, view := range s.caches.views.m {
		enc := byKey[key.inst]
		for j, col := range view.Schema().Names() {
			k := enc.Schema().Index(col)
			if view.Dict(j) != enc.Dict(k) || &view.Codes(j)[0] != &enc.Codes(k)[0] {
				t.Fatalf("view of %s re-encoded column %s", key.inst, col)
			}
		}
	}
}
