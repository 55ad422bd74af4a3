package search

import (
	"slices"
	"testing"

	"github.com/dance-db/dance/internal/joingraph"
	"github.com/dance-db/dance/internal/pricing"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/safekey"
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
			inst.Columnar = relation.ToColumnar(tables[inst.Name])
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

// TestRetainPrunesProjectedViews pins that RetainInstances drops the
// projected views (and encodings and join indexes) of superseded instance
// versions, and keeps every live instance's state.
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
	tag := s2.keepFor([]string{"xval"}, []string{"yval"}).tag
	hasView := func(inst string) bool {
		_, ok := caches.views.Get(safekey.Join(inst, tag))
		return ok
	}
	dead := g1.Instances[g1.InstanceIndex("tgt1")].CacheKey()
	live := s2.instKey[g2.InstanceIndex("tgt1")]
	if !hasView(dead) || !hasView(live) {
		t.Fatalf("expected views of both %s and %s before pruning", dead, live)
	}
	caches.RetainInstances(s2)
	if hasView(dead) {
		t.Fatalf("RetainInstances kept projected views of dead instance %s", dead)
	}
	for _, k := range s2.instKey {
		if !hasView(k) {
			t.Fatalf("RetainInstances dropped projected views of live instance %s", k)
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
	tag := s.keepFor([]string{"xval"}, []string{"yval"}).tag
	for v, inst := range g.Instances {
		enc := inst.Columnar
		if enc == nil {
			t.Fatalf("instance %s has no encoding after Build", inst.Name)
		}
		e, ok := s.caches.views.Get(safekey.Join(s.instKey[v], tag))
		if !ok {
			t.Fatalf("the search cached no projected view of %s", inst.Name)
		}
		for j, col := range e.v.Schema().Names() {
			k := enc.Schema().Index(col)
			if e.v.Dict(j) != enc.Dict(k) || &e.v.Codes(j)[0] != &enc.Codes(k)[0] {
				t.Fatalf("view of %s re-encoded column %s", inst.Name, col)
			}
		}
	}
}

// TestCorrKeysDoNotAliasOnNUL pins that an attribute name holding a NUL
// cannot take over another X/Y split's keep set or cached metrics.
func TestCorrKeysDoNotAliasOnNUL(t *testing.T) {
	split := Request{SourceAttrs: []string{"a"}, TargetAttrs: []string{"b", "c"}}
	nul := Request{SourceAttrs: []string{"a"}, TargetAttrs: []string{"b\x00c"}}
	if split.corrKey() == nul.corrKey() {
		t.Fatalf("targets %q and %q share the key %q", split.TargetAttrs, nul.TargetAttrs, split.corrKey())
	}
}

// TestJoinIndexKeysDoNotAliasOnNUL pins that join-index keys keep seller
// column names apart: on one instance, on = ["a","b"] and on = ["a\x00b"]
// are different indexes.
func TestJoinIndexKeysDoNotAliasOnNUL(t *testing.T) {
	tab := relation.NewTable("t", relation.NewSchema(relation.Cat("a", relation.KindInt),
		relation.Cat("b", relation.KindInt), relation.Cat("a\x00b", relation.KindInt)))
	for i := int64(0); i < 4; i++ {
		tab.AppendValues(relation.IntValue(i), relation.IntValue(i), relation.IntValue(i))
	}
	g, err := joingraph.Build([]*joingraph.Instance{{Name: "t", Columnar: relation.ToColumnar(tab), FullRows: 4}}, joingraph.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(g)
	for _, on := range [][]string{{"a", "b"}, {"a\x00b"}} {
		idx, err := s.joinIndexOf(0, on, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(idx.On, on) {
			t.Fatalf("join index for on = %q is the index on %q", on, idx.On)
		}
	}
}
