package infotheory

import (
	"testing"
	"testing/quick"

	"github.com/dance-db/dance/internal/relation"
)

func kv(name string, keys []int64) *relation.Table {
	t := relation.NewTable(name, relation.NewSchema(
		relation.Cat("k", relation.KindInt),
		relation.Cat("payload_"+name, relation.KindInt),
	))
	for i, k := range keys {
		t.AppendValues(relation.IntValue(k), relation.IntValue(int64(i)))
	}
	return t
}

func TestJIPerfectMatch(t *testing.T) {
	// Identical key multisets, one-to-one: every pair matches, D.J == D'.J
	// always, so I = H and JI = 0 (most informative).
	a := kv("a", []int64{1, 2, 3, 4})
	b := kv("b", []int64{1, 2, 3, 4})
	ji, err := jiTables(a, b, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if ji > 1e-12 {
		t.Fatalf("JI = %v, want 0 for perfect join", ji)
	}
}

func TestJICompletelyDisjoint(t *testing.T) {
	// No key matches: all pairs are (v, NULL) or (NULL, v). Knowing the
	// left value fully determines the pair, so I = H(joint) - H(right|left)
	// ... in fact here I(L;R) = H(L) + H(R) - H(L,R) where each marginal
	// equals the joint support split; JI must be far from 0.
	a := kv("a", []int64{1, 2, 3, 4})
	b := kv("b", []int64{5, 6, 7, 8})
	ji, err := jiTables(a, b, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if ji <= 0.3 {
		t.Fatalf("JI = %v, want clearly positive for disjoint join", ji)
	}
}

func TestJIOrderingMatchesIntuition(t *testing.T) {
	// A join where most keys match should be more informative (lower JI)
	// than one where few keys match.
	mostly := kv("b1", []int64{1, 2, 3, 9})
	barely := kv("b2", []int64{1, 9, 8, 7})
	a := kv("a", []int64{1, 2, 3, 4})
	jiMostly, err := jiTables(a, mostly, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	jiBarely, err := jiTables(a, barely, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if jiMostly >= jiBarely {
		t.Fatalf("JI(mostly matched)=%v should be < JI(barely matched)=%v", jiMostly, jiBarely)
	}
}

func TestJIDegenerate(t *testing.T) {
	// Single shared constant key: H(joint) = 0 → JI defined as 0.
	a := kv("a", []int64{7, 7})
	b := kv("b", []int64{7})
	ji, err := jiTables(a, b, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if ji != 0 {
		t.Fatalf("degenerate JI = %v, want 0", ji)
	}
	if _, err := jiTables(a, b, nil); err == nil {
		t.Fatal("no join attributes should error")
	}
}

func TestJIFromPairCountsEmpty(t *testing.T) {
	if got := jiFromPairCounts(nil); got != 0 {
		t.Fatalf("JI(nil) = %v", got)
	}
}

func TestJISymmetric(t *testing.T) {
	a := kv("a", []int64{1, 1, 2, 3, 5})
	b := kv("b", []int64{1, 2, 2, 8})
	j1, err := jiTables(a, b, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := jiTables(b, a, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(j1, j2, 1e-12) {
		t.Fatalf("JI not symmetric: %v vs %v", j1, j2)
	}
}

// Property: JI always lies in [0, 1].
func TestQuickJIRange(t *testing.T) {
	f := func(aKeys, bKeys []uint8) bool {
		if len(aKeys) == 0 || len(bKeys) == 0 {
			return true
		}
		ak := make([]int64, len(aKeys))
		for i, k := range aKeys {
			ak[i] = int64(k % 16)
		}
		bk := make([]int64, len(bKeys))
		for i, k := range bKeys {
			bk[i] = int64(k % 16)
		}
		ji, err := jiTables(kv("a", ak), kv("b", bk), []string{"k"})
		return err == nil && ji >= 0 && ji <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property 4.1 of the paper: JI depends only on the join-attribute values,
// not on the other attributes of either table. We verify by permuting the
// payload column.
func TestQuickJIIgnoresPayload(t *testing.T) {
	f := func(keys []uint8, seed int64) bool {
		if len(keys) < 2 {
			return true
		}
		ak := make([]int64, len(keys))
		for i, k := range keys {
			ak[i] = int64(k % 8)
		}
		a := kv("a", ak)
		b1 := kv("b", ak[:len(ak)/2])
		b2 := kv("b", ak[:len(ak)/2])
		// Scramble payload of b2.
		pi := b2.Schema.Index("payload_b")
		for i := range b2.Rows {
			b2.Rows[i][pi] = relation.IntValue(int64(i) * 1337)
		}
		j1, err1 := jiTables(a, b1, []string{"k"})
		j2, err2 := jiTables(a, b2, []string{"k"})
		return err1 == nil && err2 == nil && almost(j1, j2, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
