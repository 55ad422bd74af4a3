package fd

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/dance-db/dance/internal/relation"
)

func randomFDTable(rng *rand.Rand, nRows int, nullFrac float64) *relation.Table {
	tab := relation.NewTable("q", relation.NewSchema(
		relation.Cat("a", relation.KindInt),
		relation.Cat("b", relation.KindString),
		relation.Cat("c", relation.KindFloat), // mixes int/float values
		relation.Cat("d", relation.KindInt),
	))
	for i := 0; i < nRows; i++ {
		row := make([]relation.Value, 4)
		if rng.Float64() >= nullFrac {
			row[0] = relation.IntValue(int64(rng.Intn(5)))
		}
		if rng.Float64() >= nullFrac {
			row[1] = relation.StringValue(string(rune('a' + rng.Intn(3))))
		}
		x := rng.Intn(4)
		if rng.Float64() >= nullFrac {
			if rng.Intn(2) == 0 {
				row[2] = relation.IntValue(int64(x))
			} else {
				row[2] = relation.FloatValue(float64(x))
			}
		}
		if rng.Float64() >= nullFrac {
			row[3] = relation.IntValue(int64(rng.Intn(8)))
		}
		tab.Append(row)
	}
	return tab
}

func TestCorrectRowsColumnarMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	fds := []FD{
		New("d", "a"),
		New("b", "a", "c"),
		New("a", "c"),
		New("c", "b", "d"),
	}
	for trial := 0; trial < 25; trial++ {
		tab := randomFDTable(rng, 30+rng.Intn(200), []float64{0.05, 0.3, 0.6}[trial%3])
		c := relation.ToColumnar(tab)
		for _, f := range fds {
			want, err := correctRows(tab, f)
			if err != nil {
				t.Fatal(err)
			}
			got, err := CorrectRowsColumnar(c, f)
			if err != nil {
				t.Fatal(err)
			}
			if want.Count() != got.Count() {
				t.Fatalf("fd %s: %d correct rows, want %d", f, got.Count(), want.Count())
			}
			for i := 0; i < tab.NumRows(); i++ {
				if want.Has(i) != got.Has(i) {
					t.Fatalf("fd %s row %d: columnar %v, row path %v", f, i, got.Has(i), want.Has(i))
				}
			}
		}
		wantQ, err := qualitySet(tab, fds)
		if err != nil {
			t.Fatal(err)
		}
		gotQ, err := QualitySetColumnar(c, fds)
		if err != nil {
			t.Fatal(err)
		}
		if wantQ != gotQ {
			t.Fatalf("QualitySet: columnar %v != row %v (must be bit-identical)", gotQ, wantQ)
		}
	}
}

func TestQualitySetColumnarEdgeCases(t *testing.T) {
	empty := relation.NewTable("e", relation.NewSchema(relation.Cat("a", relation.KindInt)))
	q, err := QualitySetColumnar(relation.ToColumnar(empty), []FD{New("a", "a")})
	if err != nil || q != 1 {
		t.Fatalf("empty table: got %v, %v, want quality 1", q, err)
	}
	tab := relation.NewTable("t", relation.NewSchema(relation.Cat("a", relation.KindInt)))
	tab.AppendValues(relation.IntValue(1))
	// No applicable FDs → quality 1, matching the row path.
	q, err = QualitySetColumnar(relation.ToColumnar(tab), []FD{New("z", "y")})
	if err != nil || q != 1 {
		t.Fatalf("inapplicable FDs: got %v, %v, want 1", q, err)
	}
}

// QualitySetColumnar groups each distinct LHS once, refines it for every
// FD sharing it, and clears every FD's minority rows from one shared
// accumulator. The result must equal intersecting the per-FD correct-row
// sets — for every pair of FDs (a row cleared for the wrong FD would shift a
// pair's intersection) and for the whole set.
func TestQualitySetColumnarSharedLHS(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	fds := []FD{
		New("d", "a"),      // LHS {a}, RHS dictionary of 9 codes
		New("b", "a", "c"), // LHS {a, c}
		New("c", "a"),      // LHS {a} again, a smaller RHS dictionary
		New("d", "c", "a"), // LHS {a, c} again (sorted by New)
		New("b", "a"),      // LHS {a} a third time
		New("a", "d"),
	}
	sets := [][]FD{fds}
	for i := range fds {
		for j := range fds {
			if i != j {
				sets = append(sets, []FD{fds[i], fds[j]})
			}
		}
	}
	for trial := 0; trial < 25; trial++ {
		tab := randomFDTable(rng, 1+rng.Intn(250), []float64{0, 0.2, 0.5}[trial%3])
		c := relation.ToColumnar(tab)
		for _, set := range sets {
			acc, err := CorrectRowsColumnar(c, set[0])
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range set[1:] {
				cr, err := CorrectRowsColumnar(c, f)
				if err != nil {
					t.Fatal(err)
				}
				acc.And(cr)
			}
			want := float64(acc.Count()) / float64(c.NumRows())
			got, err := QualitySetColumnar(c, set)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d %v: shared-LHS quality %v != per-FD intersection %v", trial, set, got, want)
			}
			rowQ, err := qualitySet(tab, set)
			if err != nil {
				t.Fatal(err)
			}
			if got != rowQ {
				t.Fatalf("trial %d %v: columnar quality %v != row quality %v", trial, set, got, rowQ)
			}
		}
	}
}

// oracleTable builds a relation whose columns exercise every shape of the
// linear-pass quality kernel:
//
//	id  unique per row: all-singleton LHS groups
//	a   4 ints, 10% NULL: NULL LHS groups
//	b   3 strings, 10% NULL: NULL RHS codes
//	c   2 ints: frequent count ties inside small groups
//	d   a function of a: an FD that holds exactly
//	v   i/2: pairs of rows, whose RHS ties break on first row
//	w   draws from a domain of n: a dictionary large enough that v → w
//	    counts its (group, RHS code) pairs on the map side of the fuse
func oracleTable(rng *rand.Rand, n int) *relation.Table {
	tab := relation.NewTable("o", relation.NewSchema(
		relation.Cat("id", relation.KindInt),
		relation.Cat("a", relation.KindInt),
		relation.Cat("b", relation.KindString),
		relation.Cat("c", relation.KindInt),
		relation.Cat("d", relation.KindString),
		relation.Cat("v", relation.KindInt),
		relation.Cat("w", relation.KindInt),
	))
	for i := 0; i < n; i++ {
		a, b := relation.IntValue(int64(rng.Intn(4))), relation.StringValue(string(rune('x'+rng.Intn(3))))
		if rng.Float64() < 0.1 {
			a = relation.Null()
		}
		if rng.Float64() < 0.1 {
			b = relation.Null()
		}
		d := relation.StringValue("d" + a.String())
		tab.AppendValues(relation.IntValue(int64(i)), a, b, relation.IntValue(int64(rng.Intn(2))), d,
			relation.IntValue(int64(i/2)), relation.IntValue(int64(rng.Intn(n))))
	}
	return tab
}

var oracleFDs = []FD{
	New("c", "a"),      // NULL LHS, ties
	New("b", "a"),      // NULL RHS; shares LHS {a}
	New("d", "a"),      // holds exactly; shares LHS {a}
	New("a", "a"),      // trivial
	New("c", "a", "b"), // multi-attribute LHS
	New("d", "b", "a"), // the same LHS again
	New("b", "id"),     // all-singleton groups
	New("w", "v"),      // pair ties, map side of the fuse
	New("c", "v"),
	New("a", "w"),
	New("w", "c"),
}

// assertQualityOracle requires the columnar kernels to match the row kernels
// bit for bit on c: every FD's correct-row set, and the quality of every
// single FD, every pair and the whole set.
func assertQualityOracle(t *testing.T, what string, c *relation.Columnar, fds []FD) {
	t.Helper()
	tab := c.ToTable()
	for _, f := range fds {
		want, err := correctRows(tab, f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CorrectRowsColumnar(c, f)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: fd %s: columnar correct rows %v, row path %v", what, f, got, want)
		}
	}
	sets := [][]FD{fds}
	for i := range fds {
		sets = append(sets, fds[i:i+1])
		for j := i + 1; j < len(fds); j++ {
			sets = append(sets, []FD{fds[i], fds[j]})
		}
	}
	for _, set := range sets {
		want, err := qualitySet(tab, set)
		if err != nil {
			t.Fatal(err)
		}
		got, err := QualitySetColumnar(c, set)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: %v: columnar quality %v, row quality %v", what, set, got, want)
		}
	}
}

// mapSideSpan is the fuse key space of v → w on c; the test asserts it
// exceeds both of relation's flat-table bounds (2^20 slots, and 4 slots
// per row), so the map side of the fuse really runs.
func mapSideSpan(t *testing.T, c *relation.Columnar) {
	t.Helper()
	groups, err := c.GroupBy([]int{c.Schema().Index("v")})
	if err != nil {
		t.Fatal(err)
	}
	span := groups.N() * c.DictLen(c.Schema().Index("w"))
	if span <= 1<<20 || span <= 4*c.NumRows()+16 {
		t.Fatalf("v → w fuses %d keys over %d rows: the flat table would serve it", span, c.NumRows())
	}
}

// TestQualityColumnarMatchesRowOracle pins CorrectRowsColumnar and
// QualitySetColumnar to the row kernels on every shape the linear passes
// special-case: ties whose first rows differ, NULL LHS and RHS, multi-
// attribute and shared LHS, trivial FDs, singleton groups, exact FDs that
// are skipped, the map side of the fuse, and FilterRows subsets whose
// dictionaries dwarf their row counts.
func TestQualityColumnarMatchesRowOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// Hand-made ties: in group a=1 the RHS codes x and y both count 2, x
	// first (row 0); in group a=2, z (row 5) beats w (row 4) on count; in
	// group a=NULL, NULL and q tie with NULL first.
	ties := relation.NewTable("ties", relation.NewSchema(relation.Cat("a", relation.KindInt), relation.Cat("b", relation.KindString)))
	for _, r := range [][2]relation.Value{
		{relation.IntValue(1), relation.StringValue("x")},
		{relation.IntValue(1), relation.StringValue("y")},
		{relation.IntValue(1), relation.StringValue("y")},
		{relation.IntValue(1), relation.StringValue("x")},
		{relation.IntValue(2), relation.StringValue("w")},
		{relation.IntValue(2), relation.StringValue("z")},
		{relation.IntValue(2), relation.StringValue("z")},
		{relation.Null(), relation.Null()},
		{relation.Null(), relation.StringValue("q")},
	} {
		ties.AppendValues(r[0], r[1])
	}
	tc := relation.ToColumnar(ties)
	assertQualityOracle(t, "ties", tc, []FD{New("b", "a"), New("a", "b"), New("a", "a")})
	cr, err := CorrectRowsColumnar(tc, New("b", "a"))
	if err != nil {
		t.Fatal(err)
	}
	if got := cr.Indices(); !slices.Equal(got, []int{0, 3, 5, 6, 7}) {
		t.Fatalf("ties: correct rows %v, want [0 3 5 6 7]", got)
	}

	full := relation.ToColumnar(oracleTable(rng, 3000))
	mapSideSpan(t, full)
	assertQualityOracle(t, "full", full, oracleFDs)

	// Subsets keep the full dictionaries: whole v-pairs, so v → w stays
	// non-exact and on the map side, plus a sparse random subset.
	var pairs, sparse []int32
	for i := int32(0); i < int32(full.NumRows()); i += 2 {
		if rng.Intn(2) == 0 {
			pairs = append(pairs, i, i+1)
		}
		if rng.Intn(20) == 0 {
			sparse = append(sparse, i+int32(rng.Intn(2)))
		}
	}
	sub := full.FilterRows(pairs)
	mapSideSpan(t, sub)
	assertQualityOracle(t, "pair subset", sub, oracleFDs)
	assertQualityOracle(t, "sparse subset", full.FilterRows(sparse), oracleFDs)
	assertQualityOracle(t, "empty subset", full.FilterRows(nil), oracleFDs)
}
