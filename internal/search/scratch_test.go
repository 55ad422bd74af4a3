package search

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/dance-db/dance/internal/joingraph"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/safekey"
	"github.com/dance-db/dance/internal/sampling"
	"github.com/dance-db/dance/internal/tpch"
)

// tpchGraph is a TPC-H join graph over samples; its multi-variant edges
// make the MCMC walk propose, and totalprice→supplycost paths run 3+ hops.
func tpchGraph(t *testing.T) *joingraph.Graph {
	t.Helper()
	h := tpch.Generate(tpch.Config{Scale: 1, Seed: 1, DirtyFraction: 0.3})
	return sampledGraph(t, h.Tables, h.FDs, "")
}

func resampledRequest(eta, workers int) Request {
	return Request{SourceAttrs: []string{"totalprice"}, TargetAttrs: []string{"supplycost"},
		Iterations: 40, Seed: 7, Eta: eta, ResampleRate: 0.3, Workers: workers}
}

// prefixRecorder records every join prefix the searches publish.
type prefixRecorder struct {
	mu   sync.Mutex
	keys []string
	vals []*relation.Columnar
}

// recordingPrefixes passes one search's join prefixes on to its prefix
// memo and records them.
type recordingPrefixes struct {
	sampling.PrefixCache
	r *prefixRecorder
}

func (p recordingPrefixes) Put(key string, c *relation.Columnar) {
	p.r.mu.Lock()
	p.r.keys = append(p.r.keys, key)
	p.r.vals = append(p.r.vals, c)
	p.r.mu.Unlock()
	p.PrefixCache.Put(key, c)
}

// recordPrefixes makes every search the test starts publish its join
// prefixes through one recorder.
func recordPrefixes(t *testing.T) *prefixRecorder {
	r := &prefixRecorder{}
	old := newPrefixMemo
	newPrefixMemo = func() sampling.PrefixCache { return recordingPrefixes{PrefixCache: old(), r: r} }
	t.Cleanup(func() { newPrefixMemo = old })
	return r
}

// terminalMark ends every prefix key whose path ends at its last hop under
// η > 0: the key's last part is the next hop's join attributes, "$" for
// none (sampling.prefixKeys).
var terminalMark = safekey.Join(safekey.Join("$"))

// With η > 0 a search publishes every join prefix but the terminal one: the
// terminal join path's row ids live in the evaluating goroutine's scratch
// and die once measured. With η = 0 every hop, the terminal one included,
// is published. Every published prefix is a row-id path: no column of it
// was gathered. An exported Evaluate, a search of one target graph, builds
// no prefix memo and publishes nothing.
func TestTerminalJoinsNotPublished(t *testing.T) {
	g := tpchGraph(t)
	s := NewSearcher(g)
	rec := recordPrefixes(t)
	if _, err := s.Heuristic(bg, resampledRequest(50, 2)); err != nil {
		t.Fatal(err)
	}
	if len(rec.keys) == 0 {
		t.Fatal("an η > 0 search published no join prefix")
	}
	for i, k := range rec.keys {
		if strings.HasSuffix(k, terminalMark) {
			t.Fatalf("an η > 0 search published a terminal join: %q", k)
		}
		if c := rec.vals[i]; !isRowIDPath(c) {
			t.Fatalf("published prefix %q is stored, not a row-id path", k)
		}
	}

	// One evaluation of a k-hop path in a search publishes k−1 prefixes at
	// η = 0 and k−2 at η > 0.
	res, err := s.Heuristic(bg, resampledRequest(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	hops := len(res.TG.Vertices)
	if hops < 3 {
		t.Fatalf("the search picked a %d-hop path; the check needs 3+", hops)
	}
	for _, eta := range []int{0, 50} {
		rec.keys = nil
		if _, err := NewSearcher(g).newScope(resampledRequest(eta, 1)).evaluate(bg, res.TG, 0, 1); err != nil {
			t.Fatal(err)
		}
		want := hops - 1
		if eta > 0 {
			want--
		}
		if got := len(rec.keys); got != want {
			t.Fatalf("η=%d: one %d-hop evaluation published %d prefixes, want %d", eta, hops, got, want)
		}
		rec.keys = nil
		if _, err := NewSearcher(g).Evaluate(bg, res.TG, resampledRequest(eta, 1)); err != nil {
			t.Fatal(err)
		}
		if len(rec.keys) != 0 {
			t.Fatalf("η=%d: an exported Evaluate published %d prefixes, want none", eta, len(rec.keys))
		}
	}
}

// isRowIDPath reports whether every column of c is read through row ids.
func isRowIDPath(c *relation.Columnar) bool {
	for col := 0; col < c.Schema().Len(); col++ {
		if _, ids := c.CodeCol(col).Parts(); ids == nil {
			return false
		}
	}
	return true
}

// A Realize result and a published prefix are not the search scratch's to
// recycle: releasing them leaves every row of them whole. Both are row-id
// paths in plain allocations.
func TestScratchIgnoresRealizeAndPrefixes(t *testing.T) {
	g := tpchGraph(t)
	s := NewSearcher(g)
	rec := recordPrefixes(t)
	req := resampledRequest(50, 1)
	res, err := s.Heuristic(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.vals) == 0 {
		t.Fatal("the search published no join prefix")
	}
	scr := relation.NewScratch(s.caches.schemas)
	for _, c := range rec.vals {
		if !isRowIDPath(c) {
			t.Fatal("a published prefix is stored, not a row-id path")
		}
		before := c.ToTable()
		scr.Release(c)
		if after := c.ToTable(); !slices.EqualFunc(after.Rows, before.Rows, sameRow) || c.NumRows() != before.NumRows() {
			t.Fatal("releasing a published prefix changed it")
		}
	}
	hops, err := res.TG.JoinPlan()
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]FullStep, len(hops))
	for i, h := range hops {
		steps[i] = FullStep{Table: g.Instances[h.Vertex].Columnar.ToTable(), On: h.On}
	}
	j, m, err := Realize(steps, req, res.TG.FDs())
	if err != nil {
		t.Fatal(err)
	}
	before := j.ToTable()
	scr.Release(j)
	if after := j.ToTable(); after.NumRows() != before.NumRows() || after.NumRows() == 0 || !slices.EqualFunc(after.Rows, before.Rows, sameRow) {
		t.Fatalf("releasing a Realize result changed it: %d rows, had %d", after.NumRows(), before.NumRows())
	}
	var again Metrics
	if err := again.measure(j, []string{"totalprice"}, []string{"supplycost"}, res.TG.FDs(), nil); err != nil {
		t.Fatal(err)
	}
	if again.Correlation != m.Correlation || again.Quality != m.Quality {
		t.Fatal("a released Realize result measures differently")
	}
}

// Every search with η re-sampling — its terminal joins and groupings in
// per-goroutine scratch — matches its one-worker run bit for bit at every
// worker count, with default and with one-entry memos.
func TestResampledSearchParallelMatchesSerial(t *testing.T) {
	g := tpchGraph(t)
	searches := []struct {
		name string
		run  func(*Searcher, Request) ([]*Result, error)
	}{
		{"heuristic", func(s *Searcher, r Request) ([]*Result, error) {
			res, err := s.Heuristic(bg, r)
			return []*Result{res}, err
		}},
		{"topk", func(s *Searcher, r Request) ([]*Result, error) {
			opts, err := s.TopK(bg, r, 3, DefaultScoreWeights())
			var out []*Result
			for _, o := range opts {
				out = append(out, o.Result)
			}
			return out, err
		}},
		{"greedy", func(s *Searcher, r Request) ([]*Result, error) {
			res, err := s.GreedyAcquire(bg, r)
			return []*Result{res}, err
		}},
	}
	for _, sr := range searches {
		want, err := sr.run(NewSearcher(g), resampledRequest(50, 1))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			for _, oneEntry := range []bool{false, true} {
				run := func(s *Searcher) ([]*Result, error) { return sr.run(s, resampledRequest(50, workers)) }
				var got []*Result
				if oneEntry {
					got, err = oneEntrySearch(g, run)
				} else {
					got, err = run(NewSearcher(g))
				}
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s workers=%d: %d results, want %d", sr.name, workers, len(got), len(want))
				}
				for i := range want {
					sameResult(t, fmt.Sprintf("%s workers=%d one-entry=%v result %d", sr.name, workers, oneEntry, i), want[i], got[i])
				}
			}
		}
	}
}

// sameRow reports whether two decoded rows hold the same values.
func sameRow(a, b []relation.Value) bool {
	return slices.EqualFunc(a, b, func(x, y relation.Value) bool { return x.EqualValue(y) && x.IsNull() == y.IsNull() })
}
