// Package search is the end-to-end driver fixture: a real module loaded
// through `go list -export` and type-checked against compiler export data,
// exactly as cmd/dancevet does it.
package search

// PairKey carries the one seeded finding the driver test asserts on.
func PairKey(a, b string) string {
	return a + "|" + b
}

func sum(m map[int]float64) float64 {
	s := 0.0
	for _, v := range m {
		//dancevet:ignore detfloat driver fixture exercises suppression end to end
		s += v
	}
	return s
}

var _ = sum

// Pair is a two-part key; its test hook lives in export_test.go.
type Pair struct{ A, B string }

func (p Pair) render() string { return p.A + "\x00" + p.B }
