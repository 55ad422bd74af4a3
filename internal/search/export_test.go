package search

import (
	"context"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/joingraph"
	"github.com/dance-db/dance/internal/relation"
)

// Hooks for the external test package.

// EvaluateWorkers is Evaluate with an explicit worker bound for the
// columnar kernels of a cache miss.
func (s *Searcher) EvaluateWorkers(ctx context.Context, tg *joingraph.TargetGraph, req Request, workers int) (Metrics, error) {
	return s.graphScope(req, 1).evaluate(ctx, tg, 0, workers)
}

// Measure sets m's correlation and quality on j, as the evaluator does.
func (m *Metrics) Measure(j *relation.Columnar, x, y []string, fds []fd.FD) error {
	return m.measure(j, x, y, fds, nil)
}

// KeepNames returns the column keep set the evaluator projects req's joins
// to.
func (s *Searcher) KeepNames(req Request) map[string]bool {
	x, y, err := req.corrAttrs()
	if err != nil {
		panic(err)
	}
	return s.keepFor(x, y).names
}
