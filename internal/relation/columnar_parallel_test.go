package relation

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// bigTable builds a table wide enough in key domain to keep join fan-out
// bounded, and tall enough (≥ parallelMinRows) that the chunked parallel
// kernels actually engage.
func bigTable(rng *rand.Rand, name string, nRows, keyDomain int) *Table {
	schema := NewSchema(
		Cat("k", KindInt),
		Cat("s", KindString),
		Num("v", KindFloat),
		Cat("m", KindFloat),
	)
	tab := NewTable(name, schema)
	for i := 0; i < nRows; i++ {
		row := make([]Value, 4)
		if rng.Float64() < 0.05 {
			row[0] = Null()
		} else {
			row[0] = IntValue(int64(rng.Intn(keyDomain)))
		}
		row[1] = StringValue(fmt.Sprintf("s%02d", rng.Intn(40)))
		row[2] = FloatValue(rng.Float64() * 10)
		x := rng.Intn(30)
		if rng.Intn(2) == 0 {
			row[3] = IntValue(int64(x))
		} else {
			row[3] = FloatValue(float64(x))
		}
		tab.Append(row)
	}
	return tab
}

func groupingsEqual(t *testing.T, tag string, want, got *Grouping) {
	t.Helper()
	if len(want.Codes) != len(got.Codes) || want.N() != got.N() {
		t.Fatalf("%s: shape mismatch: want %d codes/%d groups, got %d/%d",
			tag, len(want.Codes), want.N(), len(got.Codes), got.N())
	}
	for i := range want.Codes {
		if want.Codes[i] != got.Codes[i] {
			t.Fatalf("%s: codes[%d] = %d, want %d", tag, i, got.Codes[i], want.Codes[i])
		}
	}
	for g := range want.Counts {
		if want.Counts[g] != got.Counts[g] || want.First[g] != got.First[g] {
			t.Fatalf("%s: group %d (count, first) = (%d, %d), want (%d, %d)",
				tag, g, got.Counts[g], got.First[g], want.Counts[g], want.First[g])
		}
	}
}

func columnarsEqual(t *testing.T, tag string, want, got *Columnar) {
	t.Helper()
	if want.NumRows() != got.NumRows() {
		t.Fatalf("%s: rows = %d, want %d", tag, got.NumRows(), want.NumRows())
	}
	if !want.Schema().Equal(got.Schema()) {
		t.Fatalf("%s: schema = %v, want %v", tag, got.Schema(), want.Schema())
	}
	for j := range want.cols {
		w, g := &want.cols[j], &got.cols[j]
		if (w.Codes == nil) != (g.Codes == nil) {
			t.Fatalf("%s: col %d storage mode differs", tag, j)
		}
		if w.Dict != g.Dict {
			t.Fatalf("%s: col %d does not share the source dictionary", tag, j)
		}
		for i := range w.Codes {
			if w.Codes[i] != g.Codes[i] {
				t.Fatalf("%s: col %d row %d code = %d, want %d", tag, j, i, g.Codes[i], w.Codes[i])
			}
		}
		for i := range w.Nums {
			if w.Nums[i] != g.Nums[i] || w.Null[i] != g.Null[i] {
				t.Fatalf("%s: col %d row %d num/null differ", tag, j, i)
			}
		}
	}
}

// TestGroupByWorkersEquivalence pins the determinism contract of the chunked
// parallel grouping: codes, counts, first rows and id order are bit-identical
// to the serial fuse for every worker count, allocated or in a scratch.
func TestGroupByWorkersEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := ToColumnar(bigTable(rng, "G", parallelMinRows+1500, 2000))
	s := NewScratch(nil)
	for _, cols := range [][]int{{0}, {0, 1}, {0, 1, 3}, {1, 3}} {
		want, err := noScratch.GroupBy(c, cols, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			plain, err := noScratch.GroupBy(c, cols, workers)
			if err != nil {
				t.Fatal(err)
			}
			groupingsEqual(t, fmt.Sprintf("cols %v workers %d allocated", cols, workers), want, plain)
			got, err := s.GroupBy(c, cols, workers)
			if err != nil {
				t.Fatal(err)
			}
			groupingsEqual(t, fmt.Sprintf("cols %v workers %d", cols, workers), want, got)
			s.ReleaseGrouping(got)
		}
	}
}

// TestEquiJoinColumnarOptsEquivalence pins the parallel probe/pairing/gather
// sweeps bit-identical to the serial join, with and without a prebuilt index.
func TestEquiJoinColumnarOptsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := ToColumnar(bigTable(rng, "A", parallelMinRows+2000, 3000))
	b := ToColumnar(bigTable(rng, "B", 20000, 3000))
	for _, on := range [][]string{{"k"}, {"k", "s"}} {
		want, err := EquiJoinColumnar(a, b, on, nil, JoinOptions{})
		if err != nil {
			t.Fatal(err)
		}
		idx, err := b.BuildJoinIndex(4, on...)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			got, err := EquiJoinColumnar(a, b, on, idx, JoinOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			columnarsEqual(t, fmt.Sprintf("on %v workers %d", on, workers), want, got)
			got2, err := EquiJoinColumnar(a, b, on, nil, JoinOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			columnarsEqual(t, fmt.Sprintf("on %v workers %d (inline index)", on, workers), want, got2)
		}
	}
}

// TestEquiJoinColumnarOptsConcurrent hammers the parallel join from several
// goroutines sharing inputs, index and the scratch pools — the -race target
// for the pooled buffers and the chunked sweeps.
func TestEquiJoinColumnarOptsConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := ToColumnar(bigTable(rng, "A", parallelMinRows+1000, 2500))
	b := ToColumnar(bigTable(rng, "B", 15000, 2500))
	idx, err := b.BuildJoinIndex(4, "k")
	if err != nil {
		t.Fatal(err)
	}
	want, err := EquiJoinColumnar(a, b, []string{"k"}, idx, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 6)
	outs := make([]*Columnar, 6)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			outs[g], errs[g] = EquiJoinColumnar(a, b, []string{"k"}, idx, JoinOptions{Workers: 1 + g%4})
		}(g)
	}
	wg.Wait()
	for g := range outs {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		columnarsEqual(t, fmt.Sprintf("goroutine %d", g), want, outs[g])
	}
}
