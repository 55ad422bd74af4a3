package tpch

import (
	"testing"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/infotheory"
	"github.com/dance-db/dance/internal/relation"
)

func TestGenerateShape(t *testing.T) {
	d := Generate(Config{Scale: 2, Seed: 1, DirtyFraction: 0.3})
	if len(d.Tables) != 8 {
		t.Fatalf("tables = %d, want 8", len(d.Tables))
	}
	sizes := Sizes(2)
	for _, name := range TableNames {
		tab := d.Table(name)
		if tab == nil {
			t.Fatalf("missing table %s", name)
		}
		if tab.NumRows() != sizes[name] {
			t.Errorf("%s rows = %d, want %d", name, tab.NumRows(), sizes[name])
		}
	}
	if d.Table("lineitem").NumCols() != 20 {
		t.Errorf("lineitem cols = %d, want 20 (Table 5)", d.Table("lineitem").NumCols())
	}
	if d.Table("region").NumCols() != 4 {
		t.Errorf("region cols = %d, want 4 (Table 5)", d.Table("region").NumCols())
	}
	if d.Table("nope") != nil {
		t.Error("unknown table should be nil")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Scale: 1, Seed: 9, DirtyFraction: 0.3})
	b := Generate(Config{Scale: 1, Seed: 9, DirtyFraction: 0.3})
	for i := range a.Tables {
		ta, tb := a.Tables[i], b.Tables[i]
		if ta.NumRows() != tb.NumRows() {
			t.Fatalf("%s row counts differ", ta.Name)
		}
		for r := range ta.Rows {
			for c := range ta.Rows[r] {
				if ta.Rows[r][c] != tb.Rows[r][c] {
					t.Fatalf("%s cell (%d,%d) differs", ta.Name, r, c)
				}
			}
		}
	}
}

func TestForeignKeysResolve(t *testing.T) {
	d := Generate(Config{Scale: 2, Seed: 3})
	pairs := []struct{ child, attr, parent string }{
		{"nation", "regionkey", "region"},
		{"supplier", "nationkey", "nation"},
		{"customer", "nationkey", "nation"},
		{"orders", "custkey", "customer"},
		{"lineitem", "orderkey", "orders"},
		{"partsupp", "partkey", "part"},
		{"partsupp", "suppkey", "supplier"},
	}
	for _, p := range pairs {
		child, parent := d.Table(p.child), d.Table(p.parent)
		pk, err := parent.Column(p.attr)
		if err != nil {
			t.Fatalf("%s.%s: %v", p.parent, p.attr, err)
		}
		valid := map[int64]bool{}
		for _, v := range pk {
			valid[v.I] = true
		}
		ck, err := child.Column(p.attr)
		if err != nil {
			t.Fatalf("%s.%s: %v", p.child, p.attr, err)
		}
		for _, v := range ck {
			if !valid[v.I] {
				t.Fatalf("%s.%s = %d has no parent in %s", p.child, p.attr, v.I, p.parent)
			}
		}
	}
}

func TestFakeJoinAttributeBridges(t *testing.T) {
	d := Generate(Config{Scale: 2, Seed: 4})
	if !d.Table("customer").Schema.Has("h_key") || !d.Table("supplier").Schema.Has("h_key") {
		t.Fatal("h_key missing")
	}
	j, err := relation.EquiJoin(d.Table("customer"), d.Table("supplier"), []string{"h_key"})
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() == 0 {
		t.Fatal("h_key bridge join is empty")
	}
}

func TestCleanTablesStayClean(t *testing.T) {
	d := Generate(Config{Scale: 2, Seed: 5, DirtyFraction: 0.3})
	for _, name := range []string{"region", "nation"} {
		for _, f := range d.FDs[name] {
			q := fdQuality(t, d.Table(name), f)
			if q != 1 {
				t.Errorf("%s FD %s quality = %v, want 1 (reference tables stay clean)", name, f, q)
			}
		}
	}
}

func TestDirtyTablesAreDirty(t *testing.T) {
	d := Generate(Config{Scale: 4, Seed: 6, DirtyFraction: 0.3})
	dirtyCount := 0
	for _, name := range DirtyTables {
		for _, f := range d.FDs[name] {
			q := fdQuality(t, d.Table(name), f)
			if q < 1 {
				dirtyCount++
			}
		}
	}
	if dirtyCount < 4 {
		t.Fatalf("only %d dirty FDs across the 6 dirty tables", dirtyCount)
	}
}

func TestPlantedCorrelationExists(t *testing.T) {
	// totalprice is driven by the customer's nation: the orders⋈customer
	// join must show clearly positive CORR(totalprice, nationkey).
	d := Generate(Config{Scale: 4, Seed: 7, DirtyFraction: 0})
	j, err := relation.EquiJoin(d.Table("orders"), d.Table("customer"), []string{"custkey"})
	if err != nil {
		t.Fatal(err)
	}
	corr, err := infotheory.Correlation(j, []string{"totalprice"}, []string{"nationkey"})
	if err != nil {
		t.Fatal(err)
	}
	if corr <= 0 {
		t.Fatalf("planted correlation missing: CORR = %v", corr)
	}
	// And it should beat the correlation with an unrelated attribute.
	base, err := infotheory.Correlation(j, []string{"totalprice"}, []string{"orderstatus"})
	if err != nil {
		t.Fatal(err)
	}
	if corr <= base {
		t.Fatalf("CORR(totalprice; nationkey)=%v not above CORR(totalprice; orderstatus)=%v", corr, base)
	}
}

func TestDeclaredFDsHoldOnCleanData(t *testing.T) {
	d := Generate(Config{Scale: 2, Seed: 8, DirtyFraction: 0})
	for name, fds := range d.FDs {
		for _, f := range fds {
			q := fdQuality(t, d.Table(name), f)
			if q < 0.999 {
				t.Errorf("declared FD %s on clean %s has quality %v", f, name, q)
			}
		}
	}
}

func TestScaleFloor(t *testing.T) {
	d := Generate(Config{Scale: 0, Seed: 1})
	if d.Table("lineitem").NumRows() == 0 {
		t.Fatal("scale 0 should floor to 1")
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
