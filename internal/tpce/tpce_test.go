package tpce

import (
	"testing"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/infotheory"
	"github.com/dance-db/dance/internal/relation"
)

func TestGenerateShapeMatchesTable5(t *testing.T) {
	d := Generate(Config{Scale: 2, Seed: 1, DirtyFraction: 0.2})
	if len(d.Tables) != 29 {
		t.Fatalf("tables = %d, want 29 (Table 5)", len(d.Tables))
	}
	for _, name := range TableNames {
		if d.Table(name) == nil {
			t.Fatalf("missing table %s", name)
		}
	}
	// Min instance: exchange with 4 rows.
	if got := d.Table("exchange").NumRows(); got != 4 {
		t.Errorf("exchange rows = %d, want 4", got)
	}
	// Max instance: watch_item.
	maxRows, maxName := 0, ""
	for _, tab := range d.Tables {
		if tab.NumRows() > maxRows {
			maxRows, maxName = tab.NumRows(), tab.Name
		}
	}
	if maxName != "watch_item" {
		t.Errorf("largest table = %s, want watch_item", maxName)
	}
	// Min attributes: sector with 3; max: customer with 28.
	if got := d.Table("sector").NumCols(); got != 3 {
		t.Errorf("sector cols = %d, want 3", got)
	}
	if got := d.Table("customer").NumCols(); got != 28 {
		t.Errorf("customer cols = %d, want 28", got)
	}
}

func TestQ3SpineJoins(t *testing.T) {
	// The length-8 spine must join end to end with nonzero rows:
	// customer_account—customer—watch_list—watch_item—security—company—
	// industry—sector.
	d := Generate(Config{Scale: 2, Seed: 2, DirtyFraction: 0.2})
	steps := []relation.PathStep{
		{Table: d.Table("customer_account")},
		{Table: d.Table("customer"), On: []string{"custid"}},
		{Table: d.Table("watch_list"), On: []string{"custid"}},
		{Table: d.Table("watch_item"), On: []string{"wlid"}},
		{Table: d.Table("security"), On: []string{"symbol"}},
		{Table: d.Table("company"), On: []string{"companyid"}},
		{Table: d.Table("industry"), On: []string{"indid"}},
		{Table: d.Table("sector"), On: []string{"sectorid"}},
	}
	j, err := relation.JoinPath(steps)
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() == 0 {
		t.Fatal("Q3 spine join is empty")
	}
	if !j.Schema.Has("cabalance") || !j.Schema.Has("sectorname") {
		t.Fatal("spine join missing source/target attributes")
	}
}

func TestPlantedSpineCorrelation(t *testing.T) {
	d := Generate(Config{Scale: 3, Seed: 3, DirtyFraction: 0})
	// Short spine: dmclose is driven by the security's sector.
	steps := []relation.PathStep{
		{Table: d.Table("daily_market")},
		{Table: d.Table("security"), On: []string{"symbol"}},
		{Table: d.Table("company"), On: []string{"companyid"}},
		{Table: d.Table("industry"), On: []string{"indid"}},
		{Table: d.Table("sector"), On: []string{"sectorid"}},
	}
	j, err := relation.JoinPath(steps)
	if err != nil {
		t.Fatal(err)
	}
	corr, err := infotheory.Correlation(j, []string{"dmclose"}, []string{"sectorname"})
	if err != nil {
		t.Fatal(err)
	}
	if corr <= 0 {
		t.Fatalf("planted sector→price correlation missing: %v", corr)
	}
	noise, err := infotheory.Correlation(j, []string{"dmclose"}, []string{"issue"})
	if err != nil {
		t.Fatal(err)
	}
	if corr <= noise {
		t.Fatalf("CORR(dmclose; sectorname)=%v not above CORR(dmclose; issue)=%v", corr, noise)
	}
}

func TestDirtySplit(t *testing.T) {
	if len(DirtyTables) != 20 {
		t.Fatalf("dirty tables = %d, want 20 (paper: 20 of 29)", len(DirtyTables))
	}
	d := Generate(Config{Scale: 2, Seed: 4, DirtyFraction: 0.2})
	// Clean reference tables keep perfect declared-FD quality.
	for _, name := range []string{"sector", "industry", "status_type", "trade_type"} {
		for _, f := range d.FDs[name] {
			q := fdQuality(t, d.Table(name), f)
			if q != 1 {
				t.Errorf("clean table %s FD %s quality = %v", name, f, q)
			}
		}
	}
	// At least several dirty tables actually have degraded FDs.
	degraded := 0
	for _, name := range DirtyTables {
		for _, f := range d.FDs[name] {
			q := fdQuality(t, d.Table(name), f)
			if q < 1 {
				degraded++
			}
		}
	}
	if degraded < 5 {
		t.Fatalf("only %d degraded FDs across dirty tables", degraded)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Scale: 1, Seed: 11, DirtyFraction: 0.2})
	b := Generate(Config{Scale: 1, Seed: 11, DirtyFraction: 0.2})
	for i := range a.Tables {
		ta, tb := a.Tables[i], b.Tables[i]
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
	d := Generate(Config{Scale: 2, Seed: 5})
	pairs := []struct{ child, attr, parent string }{
		{"industry", "sectorid", "sector"},
		{"company", "indid", "industry"},
		{"security", "companyid", "company"},
		{"customer_account", "custid", "customer"},
		{"watch_list", "custid", "customer"},
		{"watch_item", "wlid", "watch_list"},
		{"trade", "acctid", "customer_account"},
	}
	for _, p := range pairs {
		parentVals, err := d.Table(p.parent).Column(p.attr)
		if err != nil {
			t.Fatalf("%s.%s: %v", p.parent, p.attr, err)
		}
		valid := map[relation.Value]bool{}
		for _, v := range parentVals {
			valid[v] = true
		}
		childVals, err := d.Table(p.child).Column(p.attr)
		if err != nil {
			t.Fatalf("%s.%s: %v", p.child, p.attr, err)
		}
		for _, v := range childVals {
			if !valid[v] {
				t.Fatalf("%s.%s = %v dangling", p.child, p.attr, v)
			}
		}
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
