package infotheory

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/dance-db/dance/internal/relation"
)

// jiValuePool mixes every value class whose AppendKey order the code kernel
// must reproduce: NULL, integers (negative, dense-slot sized and beyond),
// integral floats that share an integer's key (3.0, ±0.0), other floats,
// and strings on both sides of the one-byte uvarint length (128).
func jiValuePool() []relation.Value {
	pool := []relation.Value{
		relation.Null(),
		relation.IntValue(3), relation.FloatValue(3.0),
		relation.IntValue(0), relation.FloatValue(math.Copysign(0, -1)), relation.FloatValue(0),
		relation.IntValue(-1), relation.IntValue(-7), relation.IntValue(1 << 40), relation.IntValue(70000),
		relation.IntValue(255), relation.IntValue(256), relation.IntValue(4000),
		relation.FloatValue(2.5), relation.FloatValue(-2.5), relation.FloatValue(math.Inf(1)), relation.FloatValue(math.NaN()),
		relation.StringValue(""), relation.StringValue("a"), relation.StringValue("b"), relation.StringValue("ab"),
		relation.StringValue("3"),
	}
	for _, n := range []int{127, 128, 129, 200, 255, 256, 300} {
		pool = append(pool, relation.StringValue(strings.Repeat("x", n)), relation.StringValue(strings.Repeat("x", n-1)+"y"))
	}
	return pool
}

func jiTable(name string, rng *rand.Rand, n int, pools [][]relation.Value) *relation.Table {
	t := relation.NewTable(name, relation.NewSchema(
		relation.Cat("k1", relation.KindInt),
		relation.Cat("k2", relation.KindString),
		relation.Cat("k3", relation.KindFloat),
		relation.Cat("payload_"+name, relation.KindInt),
	))
	for i := 0; i < n; i++ {
		row := make([]relation.Value, 4)
		for j, p := range pools {
			row[j] = p[rng.Intn(len(p))]
		}
		row[3] = relation.IntValue(int64(i))
		t.AppendValues(row...)
	}
	return t
}

// subPool draws a random subset of the pool, so sides share some keys and
// miss others.
func subPool(rng *rand.Rand, pool []relation.Value) []relation.Value {
	k := 1 + rng.Intn(len(pool))
	out := make([]relation.Value, k)
	for i := range out {
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}

func checkCodeJI(t *testing.T, tag string, ra, rb *relation.Table, ca, cb *relation.Columnar) {
	t.Helper()
	for _, on := range [][]string{{"k1"}, {"k2"}, {"k3"}, {"k1", "k2"}, {"k2", "k3"}, {"k1", "k2", "k3"}} {
		want, err := rowJoinInformativeness(ra, rb, on)
		if err != nil {
			t.Fatal(err)
		}
		got, err := JoinInformativeness(ca, cb, on)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s on %v: code JI %v (%x) != row JI %v (%x)", tag, on, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		// Compensated entropy sums often round to the same bits in any
		// order, so the summation order itself is compared too.
		pairs, err := outerJoinPairCounts(ra, rb, on)
		if err != nil {
			t.Fatal(err)
		}
		wj, wl, wr := sortedPairCounts(pairs)
		gj, gl, gr, err := relation.OuterJoinCounts(ca, cb, on)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gj, wj) || !slices.Equal(gl, wl) || !slices.Equal(gr, wr) {
			t.Fatalf("%s on %v: code counts %v / %v / %v, row counts %v / %v / %v", tag, on, gj, gl, gr, wj, wl, wr)
		}
	}
}

// TestCodeJIMatchesRowOracle pins the code kernel to the row kernel bit for
// bit on random relations over the mixed value pool, at every attribute-set
// width, with empty sides, and on relations whose dictionaries are larger
// than the relation (row subsets share the full relation's dictionaries).
func TestCodeJIMatchesRowOracle(t *testing.T) {
	pool := jiValuePool()
	var wide []relation.Value
	for i := -50; i < 5000; i += 7 {
		wide = append(wide, relation.IntValue(int64(i)))
	}
	wide = append(wide, relation.IntValue(1<<50), relation.IntValue(-1<<50), relation.Null())
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		pools := func() [][]relation.Value {
			p1 := subPool(rng, pool)
			if iter%5 == 0 {
				p1 = subPool(rng, wide)
			}
			return [][]relation.Value{p1, subPool(rng, pool), subPool(rng, pool)}
		}
		na, nb := rng.Intn(60), rng.Intn(60)
		if iter%4 == 0 {
			na, nb = rng.Intn(1500), rng.Intn(1500)
		}
		ra := jiTable("a", rng, na, pools())
		rb := jiTable("b", rng, nb, pools())
		checkCodeJI(t, "full", ra, rb, relation.ToColumnar(ra), relation.ToColumnar(rb))

		// Row subsets keep the full relations' dictionaries.
		keep := func(tab *relation.Table) ([]int32, *relation.Table) {
			var rows []int32
			sub := relation.NewTable(tab.Name, tab.Schema)
			for i, r := range tab.Rows {
				if rng.Intn(3) == 0 {
					rows = append(rows, int32(i))
					sub.Rows = append(sub.Rows, r)
				}
			}
			return rows, sub
		}
		rowsA, sa := keep(ra)
		rowsB, sb := keep(rb)
		checkCodeJI(t, "subset", sa, sb, relation.ToColumnar(ra).FilterRows(rowsA), relation.ToColumnar(rb).FilterRows(rowsB))
	}
}

func TestCodeJIEdgeCases(t *testing.T) {
	pool := [][]relation.Value{{relation.IntValue(7)}, {relation.StringValue("s")}, {relation.FloatValue(1.5)}}
	rng := rand.New(rand.NewSource(1))
	full := jiTable("a", rng, 5, pool)
	empty := jiTable("b", rng, 0, pool)
	nulls := jiTable("n", rng, 4, [][]relation.Value{{relation.Null()}, {relation.Null()}, {relation.Null()}})
	cases := []struct {
		name string
		a, b *relation.Table
	}{
		{"fully matched", full, jiTable("b", rng, 3, pool)},
		{"empty right", full, empty},
		{"empty left", empty, full},
		{"both empty", empty, jiTable("c", rng, 0, pool)},
		{"nulls both sides", nulls, jiTable("m", rng, 2, [][]relation.Value{{relation.Null()}, {relation.Null()}, {relation.Null()}})},
		{"nulls one side", nulls, full},
	}
	for _, c := range cases {
		checkCodeJI(t, c.name, c.a, c.b, relation.ToColumnar(c.a), relation.ToColumnar(c.b))
	}
	if ji, err := JoinInformativeness(relation.ToColumnar(full), relation.ToColumnar(full), []string{"k1", "k2"}); err != nil || ji != 0 {
		t.Fatalf("fully matched constant key: JI = %v, %v; want exactly 0", ji, err)
	}
}

func TestCodeJIRejectsRawNumericColumns(t *testing.T) {
	a := kv("a", []int64{1, 2})
	raw, err := relation.ToColumnarSubset(a, nil, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := JoinInformativeness(raw, relation.ToColumnar(a), []string{"k"}); err == nil {
		t.Fatal("a raw-numeric join column should error")
	}
	if _, err := JoinInformativeness(relation.ToColumnar(a), relation.ToColumnar(a), []string{"missing"}); err == nil {
		t.Fatal("a missing join column should error")
	}
}
