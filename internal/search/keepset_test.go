package search

import (
	"maps"
	"testing"
)

// maxMemoHitEvaluateAllocs bounds the allocations of an exported Evaluate
// answered by the shared evaluation memo.
const maxMemoHitEvaluateAllocs = 24

// A Searcher computes the keep set of an X/Y split once: an exported
// Evaluate answered by the evaluation memo allocates less than one keepFor
// call alone, every search of the split shares one keep set, and the keep
// set and the metrics are those a fresh computation gives.
func TestKeepSetComputedOncePerSplit(t *testing.T) {
	g := tpchGraph(t)
	s := NewSearcher(g)
	req := resampledRequest(50, 1)
	res, err := s.Heuristic(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Evaluate(bg, res.TG, req)
	if err != nil {
		t.Fatal(err)
	}
	x, y, err := req.corrAttrs()
	if err != nil {
		t.Fatal(err)
	}
	keepAllocs := testing.AllocsPerRun(20, func() { s.keepFor(x, y) })
	evalAllocs := testing.AllocsPerRun(20, func() {
		if m, err := s.Evaluate(bg, res.TG, req); err != nil || m != want {
			t.Fatalf("a memoized Evaluate returned %+v, %v; want %+v", m, err, want)
		}
	})
	t.Logf("memoized Evaluate: %.0f allocs; keepFor: %.0f allocs", evalAllocs, keepAllocs)
	if evalAllocs >= keepAllocs {
		t.Fatalf("a memoized Evaluate allocates %.0f times, a keepFor call %.0f: the keep set is recomputed per call", evalAllocs, keepAllocs)
	}
	// Evaluate searches one target graph, so it builds no join-prefix
	// memo: 20 allocations measured, where that memo alone made 18 more.
	if evalAllocs > maxMemoHitEvaluateAllocs {
		t.Fatalf("a memoized Evaluate allocates %.0f times, want at most %d: it builds a join-prefix memo", evalAllocs, maxMemoHitEvaluateAllocs)
	}

	other := req
	other.Seed++
	k1, k2 := s.newScope(req).keep, s.newScope(other).keep
	if k1 != k2 {
		t.Fatal("two searches of one X/Y split computed two keep sets")
	}
	fresh := s.keepFor(x, y)
	if k1.tag != fresh.tag || !maps.Equal(k1.names, fresh.names) {
		t.Fatal("the memoized keep set differs from a fresh one")
	}
	split := req
	split.SourceAttrs, split.TargetAttrs = nil, append(append([]string{}, req.SourceAttrs...), req.TargetAttrs...)
	if s.newScope(split).keep == k1 {
		t.Fatal("another X/Y split was served this split's keep set")
	}
	if m, err := NewSearcher(g).Evaluate(bg, res.TG, req); err != nil || m != want {
		t.Fatalf("a fresh Searcher evaluates %+v, %v; want %+v", m, err, want)
	}
}
