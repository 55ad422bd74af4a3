package search

import (
	"fmt"
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

// prefixRecorder passes a searcher's join prefixes on to its prefix memo
// and records every one the searcher publishes.
type prefixRecorder struct {
	sampling.PrefixCache
	mu   sync.Mutex
	keys []string
	vals []*relation.Columnar
}

func (r *prefixRecorder) Put(key string, c *relation.Columnar) {
	r.mu.Lock()
	r.keys = append(r.keys, key)
	r.vals = append(r.vals, c)
	r.mu.Unlock()
	r.PrefixCache.Put(key, c)
}

// recordPrefixes makes s publish its join prefixes through a recorder.
func recordPrefixes(s *Searcher) *prefixRecorder {
	r := &prefixRecorder{PrefixCache: s.caches.prefixes}
	s.caches.prefixes = r
	return r
}

// terminalMark ends every prefix key whose path ends at its last hop under
// η > 0: the key's last part is the next hop's join attributes, "$" for
// none (sampling.prefixKeys).
var terminalMark = safekey.Join(safekey.Join("$"))

// With η > 0 a search publishes every join prefix but the terminal one: the
// terminal join lives in the evaluating goroutine's scratch and dies once
// measured. With η = 0 every hop, the terminal one included, is published.
func TestTerminalJoinsNotPublished(t *testing.T) {
	g := tpchGraph(t)
	s := NewSearcher(g)
	rec := recordPrefixes(s)
	if _, err := s.Heuristic(bg, resampledRequest(50, 2)); err != nil {
		t.Fatal(err)
	}
	if len(rec.keys) == 0 {
		t.Fatal("an η > 0 search published no join prefix")
	}
	for _, k := range rec.keys {
		if strings.HasSuffix(k, terminalMark) {
			t.Fatalf("an η > 0 search published a terminal join: %q", k)
		}
	}

	// One evaluation of a k-hop path publishes k−1 prefixes at η = 0 and
	// k−2 at η > 0.
	res, err := s.Heuristic(bg, resampledRequest(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	hops := len(res.TG.Vertices)
	if hops < 3 {
		t.Fatalf("the search picked a %d-hop path; the check needs 3+", hops)
	}
	for _, eta := range []int{0, 50} {
		fresh := NewSearcher(g)
		rec := recordPrefixes(fresh)
		if _, err := fresh.Evaluate(bg, res.TG, resampledRequest(eta, 1)); err != nil {
			t.Fatal(err)
		}
		want := hops - 1
		if eta > 0 {
			want--
		}
		if got := len(rec.keys); got != want {
			t.Fatalf("η=%d: one %d-hop evaluation published %d prefixes, want %d", eta, hops, got, want)
		}
	}
}

// A Realize result and a published prefix are not the search scratch's to
// recycle: releasing them leaves them whole.
func TestScratchIgnoresRealizeAndPrefixes(t *testing.T) {
	g := tpchGraph(t)
	s := NewSearcher(g)
	rec := recordPrefixes(s)
	req := resampledRequest(50, 1)
	res, err := s.Heuristic(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.vals) == 0 {
		t.Fatal("the search published no join prefix")
	}
	scr := s.newScratch()
	for _, c := range rec.vals {
		n := c.NumRows()
		scr.Release(c)
		if c.NumRows() != n {
			t.Fatal("releasing a published prefix emptied it")
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
	if after := j.ToTable(); after.NumRows() != before.NumRows() || after.NumRows() == 0 {
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
				s := NewSearcher(g)
				if oneEntry {
					s = newOneEntrySearcher(g)
				}
				got, err := sr.run(s, resampledRequest(50, workers))
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
