package infotheory

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/dance-db/dance/internal/relation"
)

// BenchmarkCumulativeGain times the two cumulative-entropy kernels on a
// relation of n rows whose numeric column carries a dictionary d/n times
// larger than the rows (a sample join's column shares its sample's
// dictionary, which may be far larger than the join), for
// d/n ∈ {1, 4, 16, 64}: the sorted path, the ranked path with the
// dictionary's numeric order already computed (cached), and the ranked
// path computing it first (uncached, a fresh dictionary per iteration).
// Y has 8 groups.
//
//	go test ./internal/infotheory -run - -bench CumulativeGain
func BenchmarkCumulativeGain(b *testing.B) {
	const n = 2000
	for _, ratio := range []int{1, 4, 16, 64} {
		d := n * ratio
		rng := rand.New(rand.NewSource(int64(ratio)))
		parent := relation.NewTable("p", relation.NewSchema(
			relation.Num("x", relation.KindFloat),
			relation.Cat("y", relation.KindInt),
		))
		for i := 0; i < d; i++ {
			parent.Append([]relation.Value{relation.FloatValue(rng.NormFloat64() * 100), relation.IntValue(int64(rng.Intn(8)))})
		}
		rows := make([]int32, n)
		for i := range rows {
			rows[i] = int32(rng.Intn(d))
		}
		encode := func() (*relation.Columnar, *relation.Grouping) {
			c := relation.ToColumnar(parent).FilterRows(rows)
			g, err := c.GroupBy([]int{1})
			if err != nil {
				b.Fatal(err)
			}
			return c, g
		}
		logTab := log2Upto(n)
		s := relation.NewScratch(nil)
		b.Run(fmt.Sprintf("d=%dn/sorted", ratio), func(b *testing.B) {
			c, g := encode()
			for i := 0; i < b.N; i++ {
				sortedGain(c, 0, g, logTab, s)
			}
		})
		b.Run(fmt.Sprintf("d=%dn/ranked-cached", ratio), func(b *testing.B) {
			c, g := encode()
			order, _ := c.Dict(0).NumericOrder()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rankedGain(c, 0, g, c.Dict(0), order, logTab, s)
			}
		})
		b.Run(fmt.Sprintf("d=%dn/ranked-uncached", ratio), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c, g := encode()
				b.StartTimer()
				order, _ := c.Dict(0).NumericOrder()
				rankedGain(c, 0, g, c.Dict(0), order, logTab, s)
			}
		})
	}
}
