package search

import (
	"fmt"
	"slices"
	"testing"

	"github.com/dance-db/dance/internal/joingraph"
	"github.com/dance-db/dance/internal/pricing"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/safekey"
)

// rebuildGraph builds the scenario graph, optionally over a mutated
// sample, as an offline round hands the searcher its graph.
func rebuildGraph(t *testing.T, seed int64, mutate func(map[string]*relation.Table)) *joingraph.Graph {
	t.Helper()
	insts, tables := scenario(seed)
	if mutate != nil {
		mutate(tables)
		for _, inst := range insts {
			inst.Columnar = relation.ToColumnar(tables[inst.Name])
		}
	}
	g, err := joingraph.Build(insts, joingraph.Config{
		Quoter: &testQuoter{model: pricing.Cached(pricing.DefaultEntropyModel()), tables: tables},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// memoSizes counts the entries of a cache set's evaluation, projected-view,
// join-index and refinement memos.
func memoSizes(c *cacheSet) [4]int {
	return [4]int{c.eval.Len() + c.resampled.Len(), c.views.Len(), c.joinIdx.Len(), c.refines.Len()}
}

// TestSearcherCachesServeRepeatedSearches pins what a Searcher's caches
// are for: every request of a round runs on one Searcher, so a repeated
// request is served from them, adding no entry and returning the identical
// result, at η = 0 and at η > 0. A Searcher over a rebuilt graph starts
// empty and measures the new samples, as a fresh one does.
func TestSearcherCachesServeRepeatedSearches(t *testing.T) {
	s := NewSearcher(tpchGraph(t))
	for _, eta := range []int{0, 50} {
		req := resampledRequest(eta, 2)
		first, err := s.Heuristic(bg, req)
		if err != nil {
			t.Fatal(err)
		}
		warm := memoSizes(s.caches)
		if warm[0] == 0 || warm[1] == 0 || warm[2] == 0 {
			t.Fatalf("η = %d: the search cached nothing: %v", eta, warm)
		}
		again, err := s.Heuristic(bg, req)
		if err != nil {
			t.Fatal(err)
		}
		if got := memoSizes(s.caches); got != warm {
			t.Fatalf("η = %d: a repeated search grew the memos %v → %v", eta, warm, got)
		}
		sameResult(t, fmt.Sprintf("η = %d repeated search", eta), first, again)
	}
	if s.caches.refines.Len() == 0 {
		t.Fatal("the searches built no refinement")
	}

	// The tgt1 sample changes under a rebuild: rewrite yval so every key3
	// maps to the same label, and correlation through the tgt1 chain
	// collapses.
	req := baseRequest()
	old, err := NewSearcher(rebuildGraph(t, 3, nil)).Heuristic(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	g := rebuildGraph(t, 3, func(tables map[string]*relation.Table) {
		tgt1 := tables["tgt1"]
		for i := range tgt1.Rows {
			tgt1.Rows[i][1] = relation.StringValue("same")
		}
	})
	rebuilt := NewSearcher(g)
	got, err := rebuilt.Heuristic(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Est.Correlation >= old.Est.Correlation {
		t.Fatalf("correlation %v should drop below %v after tgt1 degraded", got.Est.Correlation, old.Est.Correlation)
	}
	fresh, err := NewSearcher(g).Heuristic(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "rebuilt graph", fresh, got)
}

// TestSearcherReusesBuildEncoding pins that evaluation reads the encoding
// joingraph.Build stored on each instance: every projected view the search
// cached shares its columns' codes and dictionaries with that encoding by
// pointer, so no sample is encoded twice.
func TestSearcherReusesBuildEncoding(t *testing.T) {
	g := rebuildGraph(t, 3, nil)
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
		view, ok := s.caches.views.Get(safekey.Join(vertexKey(v), tag))
		if !ok {
			t.Fatalf("the search cached no projected view of %s", inst.Name)
		}
		for j, col := range view.Schema().Names() {
			k := enc.Schema().Index(col)
			if view.Dict(j) != enc.Dict(k) || &view.Codes(j)[0] != &enc.Codes(k)[0] {
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
// column names and vertices apart: on one instance, on = ["a","b"] and
// on = ["a\x00b"] are different indexes, and two instances of one name
// never share an index.
func TestJoinIndexKeysDoNotAliasOnNUL(t *testing.T) {
	var insts []*joingraph.Instance
	for _, n := range []int64{4, 5} {
		tab := relation.NewTable("t", relation.NewSchema(relation.Cat("a", relation.KindInt),
			relation.Cat("b", relation.KindInt), relation.Cat("a\x00b", relation.KindInt)))
		for i := int64(0); i < n; i++ {
			tab.AppendValues(relation.IntValue(i), relation.IntValue(i), relation.IntValue(i))
		}
		insts = append(insts, &joingraph.Instance{Name: "t", Columnar: relation.ToColumnar(tab), FullRows: int(n)})
	}
	g, err := joingraph.Build(insts, joingraph.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(g)
	for _, on := range [][]string{{"a", "b"}, {"a\x00b"}} {
		var idxs [2]*relation.JoinIndex
		for v := range idxs {
			if idxs[v], err = s.joinIndexOf(v, on, 1); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(idxs[v].On, on) {
				t.Fatalf("join index for on = %q is the index on %q", on, idxs[v].On)
			}
		}
		if idxs[0] == idxs[1] {
			t.Fatalf("vertices 0 and 1 share the join index on %q", on)
		}
	}
}
