package fd

import (
	"math/rand"
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
			want, err := CorrectRows(tab, f)
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
		wantQ, err := QualitySet(tab, fds)
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

// QualitySetColumnar groups each distinct LHS once and refines it for every
// FD sharing it, with one scratch across FDs of different RHS dictionary
// sizes. The result must equal intersecting the per-FD correct-row sets —
// for every pair of FDs (a stale count carried from one FD to the next would
// shift a pair's intersection) and for the whole set.
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
			rowQ, err := QualitySet(tab, set)
			if err != nil {
				t.Fatal(err)
			}
			if got != rowQ {
				t.Fatalf("trial %d %v: columnar quality %v != row quality %v", trial, set, got, rowQ)
			}
		}
	}
}
