package fd

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/dance-db/dance/internal/relation"
)

// exampleTable2 is the paper's Table 2 (Example 2.1): FD A → B with
// correct records {t1, t2, t5}.
func exampleTable2() *relation.Table {
	t := relation.NewTable("D", relation.NewSchema(
		relation.Cat("A", relation.KindString),
		relation.Cat("B", relation.KindString),
	))
	for _, r := range [][2]string{
		{"a1", "b1"}, {"a1", "b1"}, {"a1", "b2"}, {"a1", "b3"}, {"a2", "b2"},
	} {
		t.AppendValues(relation.StringValue(r[0]), relation.StringValue(r[1]))
	}
	return t
}

// table3Full reproduces the paper's Table 3: D1 with 1000 rows (996 correct
// w.r.t. A→B), D2 with 5 rows (3 correct w.r.t. D→E).
func table3Full() (*relation.Table, *relation.Table) {
	d1 := relation.NewTable("D1", relation.NewSchema(
		relation.Cat("A", relation.KindString),
		relation.Cat("B", relation.KindString),
		relation.Cat("C", relation.KindString),
	))
	for i := 4; i <= 999; i++ { // t1..t996: (a1, b1, c4..c999)
		d1.AppendValues(relation.StringValue("a1"), relation.StringValue("b1"),
			relation.StringValue("c"+itoa(i)))
	}
	d1.AppendValues(relation.StringValue("a1"), relation.StringValue("b2"), relation.StringValue("c1"))
	d1.AppendValues(relation.StringValue("a1"), relation.StringValue("b2"), relation.StringValue("c2"))
	d1.AppendValues(relation.StringValue("a1"), relation.StringValue("b3"), relation.StringValue("c3"))
	d1.AppendValues(relation.StringValue("a1"), relation.StringValue("b3"), relation.StringValue("c3"))

	d2 := relation.NewTable("D2", relation.NewSchema(
		relation.Cat("C", relation.KindString),
		relation.Cat("D", relation.KindString),
		relation.Cat("E", relation.KindString),
	))
	for _, r := range [][3]string{
		{"c1", "d1", "e1"}, {"c1", "d1", "e1"},
		{"c2", "d1", "e2"}, {"c3", "d1", "e2"}, {"c4", "d1", "e2"},
	} {
		d2.AppendValues(relation.StringValue(r[0]), relation.StringValue(r[1]), relation.StringValue(r[2]))
	}
	return d1, d2
}

func itoa(i int) string {
	// small helper to avoid strconv import noise in tests
	digits := "0123456789"
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{digits[i%10]}, b...)
		i /= 10
	}
	return string(b)
}

func TestParseAndString(t *testing.T) {
	f, err := Parse("zip , city -> state")
	if err != nil {
		t.Fatal(err)
	}
	if f.RHS != "state" || len(f.LHS) != 2 || f.LHS[0] != "city" || f.LHS[1] != "zip" {
		t.Fatalf("parsed %v", f)
	}
	if got := f.String(); got != "city,zip → state" {
		t.Fatalf("String = %q", got)
	}
	f2, err := Parse("A → B")
	if err != nil || f2.RHS != "B" {
		t.Fatalf("unicode arrow parse failed: %v %v", f2, err)
	}
	for _, bad := range []string{"A B", "-> B", "A ->"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

// syntaxRepros are FDs whose names hold the wire syntax's delimiters: each
// rendered without escapes parsed back as another FD.
var syntaxRepros = []FD{
	New("c", "a,b"), // LHS split into [a b]
	New("c", " a"),  // edge space trimmed
	New("c", "p→q"), // LHS [p], RHS "q -> c"
}

// TestFormatRoundTrip: Parse inverts Format for names holding delimiters,
// and names without delimiters render as they always have.
func TestFormatRoundTrip(t *testing.T) {
	for _, f := range append(syntaxRepros,
		New("z", "x\\", "y->"), New(" ", "\t"), New("a -> b", "c,d → e")) {
		g, err := Parse(Format(f))
		if err != nil || !reflect.DeepEqual(f, g) {
			t.Fatalf("Parse(Format(%q)) = %q, %v", f, g, err)
		}
	}
	if got := Format(New("state", "zip", "city")); got != "city,zip -> state" {
		t.Fatalf("Format = %q", got)
	}
	if got := Format(New("p-q", "a>b", "x y")); got != "a>b,x y -> p-q" {
		t.Fatalf("Format = %q", got)
	}
	if _, err := Parse(`a -> b\`); err == nil {
		t.Fatal("a bare trailing escape parsed")
	}
}

// FuzzFDSyntax: Parse never panics, and an FD it accepts survives Format
// and Parse unchanged.
func FuzzFDSyntax(f *testing.F) {
	for _, fd := range syntaxRepros {
		f.Add(strings.Join(fd.LHS, ",") + " -> " + fd.RHS)
		f.Add(Format(fd))
	}
	f.Add("zip , city → state")
	f.Add(`a\,b\ -> \→c`)
	f.Fuzz(func(t *testing.T, s string) {
		fd, err := Parse(s)
		if err != nil {
			return
		}
		again, err := Parse(Format(fd))
		if err != nil || !reflect.DeepEqual(fd, again) {
			t.Fatalf("Parse(%q) = %q, but its Format %q parses as %q, %v", s, fd, Format(fd), again, err)
		}
	})
}

func TestAppliesTo(t *testing.T) {
	d := exampleTable2()
	if !New("B", "A").AppliesTo(d.Schema) {
		t.Fatal("A→B should apply")
	}
	if New("Z", "A").AppliesTo(d.Schema) {
		t.Fatal("A→Z should not apply")
	}
}

// quality is Q of Def 2.3 under fds on t's encoding; for one FD, Q(D, F)
// of Def 2.2.
func quality(t *relation.Table, fds ...FD) (float64, error) {
	return QualitySetColumnar(relation.ToColumnar(t), fds, nil)
}

func TestQualityExample21(t *testing.T) {
	d := exampleTable2()
	q, err := quality(d, New("B", "A"))
	if err != nil {
		t.Fatal(err)
	}
	if q != 0.6 {
		t.Fatalf("Q = %v, want 0.6 (correct records {t1,t2,t5})", q)
	}
	c, err := CorrectRowsColumnar(relation.ToColumnar(d), New("B", "A"))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 4}
	got := rowsOf(c, d.NumRows())
	if len(got) != len(want) {
		t.Fatalf("correct rows = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("correct rows = %v, want %v", got, want)
		}
	}
}

func TestJoinDegradesQuality(t *testing.T) {
	// The paper's Example 2.2: two high-quality instances join into a
	// low-quality result, so quality must be measured on the join.
	d1, d2 := table3Full()
	q1, err := quality(d1, New("B", "A"))
	if err != nil {
		t.Fatal(err)
	}
	if q1 != 0.996 {
		t.Fatalf("Q(D1) = %v, want 0.996", q1)
	}
	q2, err := quality(d2, New("E", "D"))
	if err != nil {
		t.Fatal(err)
	}
	if q2 != 0.6 {
		t.Fatalf("Q(D2) = %v, want 0.6", q2)
	}
	j, err := relation.EquiJoin(d1, d2, []string{"C"})
	if err != nil {
		t.Fatal(err)
	}
	// c1 → (a1,b2) × 2 rows, c2 → 1, c3 (two D1 rows) → 2, c4 → 1: 6 rows.
	// (The paper's Table 3(c) lists 5 rows, omitting the c4 match; we use
	// the exact value for this data.)
	if j.NumRows() != 6 {
		t.Fatalf("join rows = %d, want 6", j.NumRows())
	}
	qj, err := quality(j, New("B", "A"), New("E", "D"))
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 / 6.0
	if diff := qj - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("Q(join) = %v, want %v", qj, want)
	}
	if qj >= q1 || qj >= q2 {
		t.Fatal("join quality should be lower than both inputs here")
	}
}

func TestQualitySetSkipsInapplicable(t *testing.T) {
	d := exampleTable2()
	q, err := quality(d, New("Z", "Y")) // not applicable
	if err != nil {
		t.Fatal(err)
	}
	if q != 1 {
		t.Fatalf("quality with no applicable FDs = %v, want 1", q)
	}
	q, err = quality(d)
	if err != nil || q != 1 {
		t.Fatalf("quality with empty FD set = %v, %v", q, err)
	}
}

func TestQualityEmptyTable(t *testing.T) {
	d := relation.NewTable("e", relation.NewSchema(
		relation.Cat("A", relation.KindString), relation.Cat("B", relation.KindString)))
	q, err := quality(d, New("B", "A"))
	if err != nil || q != 1 {
		t.Fatalf("empty table quality = %v, %v", q, err)
	}
}

func TestApplicable(t *testing.T) {
	d := exampleTable2()
	fds := []FD{New("B", "A"), New("Z", "A"), New("A", "B")}
	got := Applicable(fds, d.Schema)
	if len(got) != 2 {
		t.Fatalf("Applicable = %v", got)
	}
}

// fdTestTable builds a table where zip → state holds exactly, id is a key,
// and noise is random.
func fdTestTable(n int, errFrac float64, seed int64) *relation.Table {
	rng := rand.New(rand.NewSource(seed))
	t := relation.NewTable("addr", relation.NewSchema(
		relation.Cat("id", relation.KindInt),
		relation.Cat("zip", relation.KindInt),
		relation.Cat("state", relation.KindString),
		relation.Cat("noise", relation.KindInt),
	))
	states := []string{"NJ", "NY", "CA", "MA"}
	for i := 0; i < n; i++ {
		zip := int64(rng.Intn(20))
		st := states[zip%4]
		if rng.Float64() < errFrac {
			st = states[rng.Intn(4)]
		}
		t.AppendValues(
			relation.IntValue(int64(i)),
			relation.IntValue(zip),
			relation.StringValue(st),
			relation.IntValue(int64(rng.Intn(1000000))),
		)
	}
	return t
}

func TestDiscoverFindsPlantedFD(t *testing.T) {
	tab := fdTestTable(500, 0.02, 1)
	fds, err := Discover(relation.ToColumnar(tab), DiscoveryOptions{MaxError: 0.1, MaxLHS: 2})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range fds {
		if f.RHS == "state" && len(f.LHS) == 1 && f.LHS[0] == "zip" {
			found = true
		}
	}
	if !found {
		t.Fatalf("zip → state not discovered; got %v", fds)
	}
}

func TestDiscoverKeyDeterminesAll(t *testing.T) {
	tab := fdTestTable(200, 0.02, 2)
	fds, err := Discover(relation.ToColumnar(tab), DiscoveryOptions{MaxError: 0.05, MaxLHS: 1})
	if err != nil {
		t.Fatal(err)
	}
	// id is a key: id→zip, id→state, id→noise must all be present.
	want := map[string]bool{"id → zip": false, "id → state": false, "id → noise": false}
	for _, f := range fds {
		if _, ok := want[f.String()]; ok {
			want[f.String()] = true
		}
	}
	for k, ok := range want {
		if !ok {
			t.Errorf("missing key FD %s; got %v", k, fds)
		}
	}
}

func TestDiscoverMinimality(t *testing.T) {
	tab := fdTestTable(400, 0.02, 3)
	fds, err := Discover(relation.ToColumnar(tab), DiscoveryOptions{MaxError: 0.1, MaxLHS: 2})
	if err != nil {
		t.Fatal(err)
	}
	// No FD's LHS may be a strict superset of another FD's LHS with the
	// same RHS.
	byRHS := map[string][][]string{}
	for _, f := range fds {
		byRHS[f.RHS] = append(byRHS[f.RHS], f.LHS)
	}
	for rhs, lhss := range byRHS {
		for i, a := range lhss {
			for j, b := range lhss {
				if i == j {
					continue
				}
				if isSubset(a, b) && len(a) < len(b) {
					t.Errorf("non-minimal FD for %s: %v ⊂ %v both emitted", rhs, a, b)
				}
			}
		}
	}
}

func isSubset(a, b []string) bool {
	set := map[string]bool{}
	for _, x := range b {
		set[x] = true
	}
	for _, x := range a {
		if !set[x] {
			return false
		}
	}
	return true
}

func TestDiscoverRespectsErrorBound(t *testing.T) {
	tab := fdTestTable(300, 0.05, 4)
	const maxErr = 0.1
	fds, err := Discover(relation.ToColumnar(tab), DiscoveryOptions{MaxError: maxErr, MaxLHS: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(fds) == 0 {
		t.Fatal("expected some FDs")
	}
	for _, f := range fds {
		q, err := quality(tab, f)
		if err != nil {
			t.Fatal(err)
		}
		if q < 1-maxErr-1e-9 {
			t.Errorf("discovered FD %s has quality %v < %v", f, q, 1-maxErr)
		}
	}
}

func TestDiscoverMinDistinctSkipsConstants(t *testing.T) {
	tab := relation.NewTable("c", relation.NewSchema(
		relation.Cat("a", relation.KindInt),
		relation.Cat("const", relation.KindString),
	))
	for i := 0; i < 50; i++ {
		tab.AppendValues(relation.IntValue(int64(i)), relation.StringValue("same"))
	}
	withSkip, err := Discover(relation.ToColumnar(tab), DiscoveryOptions{MaxError: 0.1, MaxLHS: 1, MinDistinct: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range withSkip {
		if f.RHS == "const" {
			t.Errorf("constant RHS not skipped: %v", f)
		}
	}
	noSkip, err := Discover(relation.ToColumnar(tab), DiscoveryOptions{MaxError: 0.1, MaxLHS: 1})
	if err != nil {
		t.Fatal(err)
	}
	foundConst := false
	for _, f := range noSkip {
		if f.RHS == "const" {
			foundConst = true
		}
	}
	if !foundConst {
		t.Error("without MinDistinct, a→const should be discovered")
	}
}

func TestDiscoverMaxRowsSampling(t *testing.T) {
	tab := fdTestTable(2000, 0.02, 5)
	fds, err := Discover(relation.ToColumnar(tab), DiscoveryOptions{MaxError: 0.1, MaxLHS: 1, MaxRows: 200})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range fds {
		if strings.HasPrefix(f.String(), "zip → state") {
			found = true
		}
	}
	if !found {
		t.Fatalf("sampled discovery missed zip → state: %v", fds)
	}
}

func TestDiscoverDegenerate(t *testing.T) {
	empty := relation.NewTable("e", relation.NewSchema(relation.Cat("a", relation.KindInt)))
	fds, err := Discover(relation.ToColumnar(empty), DefaultDiscoveryOptions())
	if err != nil || fds != nil {
		t.Fatalf("single-column/empty discovery = %v, %v", fds, err)
	}
}

// TestDiscoverWideSchema covers schemas wider than 256 columns: the pruning
// state of attribute 257 must not overwrite attribute 1's, or the minimal
// FD {c0, c1} → r is wrongly treated as already determined.
func TestDiscoverWideSchema(t *testing.T) {
	const width = 258
	cols := make([]relation.Column, 0, width+1)
	for i := 0; i < width; i++ {
		cols = append(cols, relation.Cat("c"+itoa(i), relation.KindInt))
	}
	cols = append(cols, relation.Cat("r", relation.KindInt))
	tab := relation.NewTable("wide", relation.NewSchema(cols...))
	c0, c1 := []int64{0, 0, 1, 1}, []int64{0, 1, 0, 1}
	for row := 0; row < 4; row++ {
		vals := make([]relation.Value, width+1)
		for i := range vals {
			vals[i] = relation.IntValue(7)
		}
		vals[0], vals[1] = relation.IntValue(c0[row]), relation.IntValue(c1[row])
		vals[width-1], vals[width] = relation.IntValue(int64(row)), relation.IntValue(int64(row))
		tab.AppendValues(vals...)
	}
	fds, err := Discover(relation.ToColumnar(tab), DiscoveryOptions{MaxError: 0, MaxLHS: 2, MinDistinct: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fds {
		if f.String() == "c0,c1 → r" {
			return
		}
	}
	t.Fatalf("minimal FD c0,c1 → r missing from %v", fds)
}
