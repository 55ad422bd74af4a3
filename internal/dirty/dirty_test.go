package dirty

import (
	"math/rand"
	"testing"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/relation"
)

func cleanTable(n int) *relation.Table {
	t := relation.NewTable("t", relation.NewSchema(
		relation.Cat("k", relation.KindInt),
		relation.Cat("v", relation.KindString),
	))
	for i := 0; i < n; i++ {
		k := int64(i % 10)
		t.AppendValues(relation.IntValue(k), relation.StringValue("v"+string(rune('a'+k))))
	}
	return t
}

func TestInjectBreaksFD(t *testing.T) {
	tab := cleanTable(500)
	f := fd.New("v", "k")
	q0 := fdQuality(t, tab, f)
	if q0 != 1 {
		t.Fatalf("setup: clean quality = %v", q0)
	}
	mod := Inject(tab, 0.3, []fd.FD{f}, rand.New(rand.NewSource(1)))
	if mod == 0 {
		t.Fatal("no rows modified")
	}
	// Roughly 30% ± slack.
	if mod < 100 || mod > 200 {
		t.Fatalf("modified %d of 500, want ≈150", mod)
	}
	q1 := fdQuality(t, tab, f)
	if q1 >= q0 {
		t.Fatalf("quality did not drop: %v → %v", q0, q1)
	}
	if q1 > 0.85 || q1 < 0.55 {
		t.Fatalf("quality after 30%% dirt = %v, want ≈0.7", q1)
	}
}

func TestInjectZeroFraction(t *testing.T) {
	tab := cleanTable(100)
	if mod := Inject(tab, 0, []fd.FD{fd.New("v", "k")}, rand.New(rand.NewSource(1))); mod != 0 {
		t.Fatalf("modified %d rows at frac 0", mod)
	}
}

func TestInjectNoApplicableFDs(t *testing.T) {
	tab := cleanTable(100)
	if mod := Inject(tab, 0.5, []fd.FD{fd.New("zz", "yy")}, rand.New(rand.NewSource(1))); mod != 0 {
		t.Fatalf("modified %d rows with inapplicable FDs", mod)
	}
}

func TestInjectTinyTable(t *testing.T) {
	tab := cleanTable(1)
	if mod := Inject(tab, 1, []fd.FD{fd.New("v", "k")}, rand.New(rand.NewSource(1))); mod != 0 {
		t.Fatalf("modified %d rows in 1-row table", mod)
	}
}

func TestInjectValuesStayInDomain(t *testing.T) {
	tab := cleanTable(300)
	domain := map[string]bool{}
	vi := tab.Schema.Index("v")
	for _, r := range tab.Rows {
		domain[r[vi].S] = true
	}
	Inject(tab, 0.5, []fd.FD{fd.New("v", "k")}, rand.New(rand.NewSource(2)))
	for _, r := range tab.Rows {
		if !domain[r[vi].S] {
			t.Fatalf("out-of-domain value injected: %q", r[vi].S)
		}
	}
}

func TestInjectTables(t *testing.T) {
	a := cleanTable(200)
	a.Name = "a"
	b := cleanTable(200)
	b.Name = "b"
	tables := map[string]*relation.Table{"a": a, "b": b}
	fds := map[string][]fd.FD{"a": {fd.New("v", "k")}, "b": {fd.New("v", "k")}}
	mods := InjectTables(tables, fds, []string{"a", "missing"}, 0.3, rand.New(rand.NewSource(3)))
	if mods["a"] == 0 {
		t.Fatal("table a untouched")
	}
	if _, ok := mods["missing"]; ok {
		t.Fatal("missing table should be skipped")
	}
	qb := fdQuality(t, b, fd.New("v", "k"))
	if qb != 1 {
		t.Fatal("table b should stay clean")
	}
}

// fdQuality returns Q(D, f) of Def 2.2 for one FD, failing the test when f
// names a column tab lacks (QualitySetColumnar would skip such an FD and
// report 1).
func fdQuality(t *testing.T, tab *relation.Table, f fd.FD) float64 {
	t.Helper()
	c := relation.ToColumnar(tab)
	correct, err := fd.CorrectRowsColumnar(c, f)
	if err != nil {
		t.Fatalf("%s: %v", tab.Name, err)
	}
	if c.NumRows() == 0 {
		return 1
	}
	return float64(correct.Count()) / float64(c.NumRows())
}
