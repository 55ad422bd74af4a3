package search

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/dance-db/dance/internal/joingraph"
	"github.com/dance-db/dance/internal/pricing"
	"github.com/dance-db/dance/internal/relation"
)

// buildSwappableSearcher builds a chain a — b — c whose b–c edge shares two
// attributes, giving the MCMC three join-attribute variants to walk over.
// Without swappable edges Algorithm 1 exits after the initial evaluation
// and cancellation has nothing to interrupt.
func buildSwappableSearcher(t *testing.T) *Searcher {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	a := relation.NewTable("a", relation.NewSchema(
		relation.Cat("k", relation.KindInt),
		relation.Num("x", relation.KindFloat),
	))
	b := relation.NewTable("b", relation.NewSchema(
		relation.Cat("k", relation.KindInt),
		relation.Cat("j1", relation.KindInt),
		relation.Cat("j2", relation.KindInt),
	))
	c := relation.NewTable("c", relation.NewSchema(
		relation.Cat("j1", relation.KindInt),
		relation.Cat("j2", relation.KindInt),
		relation.Cat("y", relation.KindString),
	))
	for i := 0; i < 300; i++ {
		k := int64(rng.Intn(30))
		a.AppendValues(relation.IntValue(k), relation.FloatValue(float64(k)+rng.Float64()))
	}
	for k := int64(0); k < 30; k++ {
		b.AppendValues(relation.IntValue(k), relation.IntValue(k%6), relation.IntValue(k%5))
	}
	for j1 := int64(0); j1 < 6; j1++ {
		for j2 := int64(0); j2 < 5; j2++ {
			c.AppendValues(relation.IntValue(j1), relation.IntValue(j2),
				relation.StringValue(string(rune('a'+(j1+j2)%4))))
		}
	}
	insts := []*joingraph.Instance{
		{Name: "a", Columnar: relation.ToColumnar(a), FullRows: a.NumRows(), Owned: true},
		{Name: "b", Columnar: relation.ToColumnar(b), FullRows: b.NumRows()},
		{Name: "c", Columnar: relation.ToColumnar(c), FullRows: c.NumRows()},
	}
	tables := map[string]*relation.Table{"a": a, "b": b, "c": c}
	g, err := joingraph.Build(insts, joingraph.Config{
		Quoter: &testQuoter{model: pricing.Cached(pricing.DefaultEntropyModel()), tables: tables},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The walk needs at least one edge with alternative variants.
	swappable := false
	for _, e := range g.Edges {
		if len(e.Variants) > 1 {
			swappable = true
		}
	}
	if !swappable {
		t.Fatal("scenario has no multi-variant edge; the MCMC would exit immediately")
	}
	return NewSearcher(g)
}

func swappableRequest() Request {
	return Request{
		SourceAttrs: []string{"x"},
		TargetAttrs: []string{"y"},
		Budget:      1e9,
		Alpha:       100,
		Iterations:  1 << 30, // far beyond what can run before cancellation
		Seed:        5,
	}
}

// Cancelling mid-search must stop the MCMC chains promptly with ctx.Err(),
// not drain the full iteration budget.
func TestHeuristicCancelsMidMCMC(t *testing.T) {
	for _, workers := range []int{1, 0} {
		s := buildSwappableSearcher(t)
		req := swappableRequest()
		req.Workers = workers

		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(50 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, err := s.Heuristic(ctx, req)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("workers=%d: cancellation took %v", workers, elapsed)
		}
		cancel()
	}
}

func TestTopKCancelsMidMCMC(t *testing.T) {
	s := buildSwappableSearcher(t)
	req := swappableRequest()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.TopK(ctx, req, 3, DefaultScoreWeights())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

func TestHeuristicPreCancelled(t *testing.T) {
	s, _ := buildSearcher(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Heuristic(ctx, baseRequest()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
