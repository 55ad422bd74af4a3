package marketplace

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"github.com/dance-db/dance/internal/infotheory"
	"github.com/dance-db/dance/internal/pricing"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/tpce"
	"github.com/dance-db/dance/internal/tpch"
)

// mixedKeyTable exercises the int/float key unification: the join attribute
// holds IntValue(k) in some rows and FloatValue(k.0) in others, which must
// hash (and dictionary-encode) identically.
func mixedKeyTable() *relation.Table {
	t := relation.NewTable("mixed", relation.NewSchema(
		relation.Cat("k", relation.KindFloat),
		relation.Num("v", relation.KindFloat),
	))
	for i := 0; i < 240; i++ {
		k := int64(i % 17)
		if i%3 == 0 {
			t.AppendValues(relation.FloatValue(float64(k)), relation.FloatValue(float64(i)))
		} else {
			t.AppendValues(relation.IntValue(k), relation.FloatValue(float64(i)))
		}
	}
	return t
}

// nullHeavyTable has NULLs in the join attribute (never sampled below rate
// 1, always delivered at rate 1) and in measure columns.
func nullHeavyTable() *relation.Table {
	t := relation.NewTable("nullish", relation.NewSchema(
		relation.Cat("k", relation.KindInt),
		relation.Cat("tag", relation.KindString),
		relation.Num("v", relation.KindFloat),
	))
	for i := 0; i < 300; i++ {
		k := relation.IntValue(int64(i % 23))
		if i%7 == 0 {
			k = relation.Null()
		}
		v := relation.FloatValue(float64(i % 41))
		if i%5 == 0 {
			v = relation.Null()
		}
		t.AppendValues(k, relation.StringValue(string(rune('a'+i%4))), v)
	}
	return t
}

func rowsEqual(t *testing.T, label string, a, b *relation.Table) {
	t.Helper()
	if a.NumRows() != b.NumRows() {
		t.Fatalf("%s: %d rows != %d rows", label, a.NumRows(), b.NumRows())
	}
	all := make([]int, a.Schema.Len())
	for i := range all {
		all[i] = i
	}
	var ba, bb []byte
	for i := range a.Rows {
		ba = relation.EncodeKey(ba[:0], a.Rows[i], all)
		bb = relation.EncodeKey(bb[:0], b.Rows[i], all)
		if string(ba) != string(bb) {
			t.Fatalf("%s: row %d differs: %v vs %v", label, i, a.Rows[i], b.Rows[i])
		}
	}
}

func columnarEqual(t *testing.T, label string, a, b *relation.Columnar) {
	t.Helper()
	if a.NumRows() != b.NumRows() {
		t.Fatalf("%s: columnar %d rows != %d", label, a.NumRows(), b.NumRows())
	}
	for j := 0; j < a.Schema().Len(); j++ {
		ca, cb := a.Codes(j), b.Codes(j)
		if (ca == nil) != (cb == nil) {
			t.Fatalf("%s: column %d storage mode differs", label, j)
		}
		if a.DictLen(j) != b.DictLen(j) {
			t.Fatalf("%s: column %d dict %d != %d", label, j, a.DictLen(j), b.DictLen(j))
		}
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("%s: column %d row %d code %d != %d", label, j, i, ca[i], cb[i])
			}
		}
	}
}

// TestSampleDeltaMergeEquivalence pins the tentpole invariant: for any
// ρ < ρ′, Sample(ρ) ++ SampleDelta(ρ, ρ′) is bit-identical to a fresh
// Sample(ρ′) — rows, columnar dictionary codes, and metric values — across
// TPC-H, TPC-E, NULL-heavy and mixed int/float-key tables.
func TestSampleDeltaMergeEquivalence(t *testing.T) {
	const seed = 11
	tpchD := tpch.Generate(tpch.Config{Scale: 1, Seed: 2, DirtyFraction: 0.3})
	tpceD := tpce.Generate(tpce.Config{Scale: 1, Seed: 3, DirtyFraction: 0.2})

	type tcase struct {
		table *relation.Table
		on    []string
	}
	cases := []tcase{
		{tpchD.Table("orders"), []string{"custkey"}},
		{tpchD.Table("lineitem"), []string{"orderkey"}},
		{tpceD.Tables[2], []string{tpceD.Tables[2].Schema.Names()[0]}},
		{mixedKeyTable(), []string{"k"}},
		{nullHeavyTable(), []string{"k"}},
	}
	ladder := [][2]float64{{0.1, 0.3}, {0.3, 0.7}, {0.45, 1}, {0.05, 0.06}}

	for _, tc := range cases {
		m := NewInMemory(nil)
		m.Register(tc.table, nil)
		for _, pair := range ladder {
			lo, hi := pair[0], pair[1]
			base, basePrice, err := m.Sample(bg, tc.table.Name, tc.on, lo, seed)
			if err != nil {
				t.Fatal(err)
			}
			delta, deltaPrice, err := m.SampleDelta(bg, tc.table.Name, tc.on, lo, hi, seed)
			if err != nil {
				t.Fatal(err)
			}
			fresh, freshPrice, err := m.Sample(bg, tc.table.Name, tc.on, hi, seed)
			if err != nil {
				t.Fatal(err)
			}
			label := tc.table.Name + " " + pair2s(lo, hi)

			// The delta bills exactly the discount difference.
			full, err := m.QuoteProjection(bg, tc.table.Name, tc.table.Schema.Names())
			if err != nil {
				t.Fatal(err)
			}
			if want := pricing.SampleDiscount(full, hi) - pricing.SampleDiscount(full, lo); deltaPrice != want {
				t.Fatalf("%s: delta price %v != %v", label, deltaPrice, want)
			}
			// Escalating (base + delta) is strictly cheaper than re-buying
			// the fresh sample on top of the base.
			if deltaPrice >= freshPrice {
				t.Fatalf("%s: delta %v not cheaper than fresh sample %v", label, deltaPrice, freshPrice)
			}
			_ = basePrice

			merged := relation.NewTable(base.Name, base.Schema)
			merged.Rows = append(append(merged.Rows, base.Rows...), delta.Rows...)
			rowsEqual(t, label, merged, fresh)

			// Columnar path: appending the delta to the encoded base must
			// reproduce the fresh encoding code for code.
			mc, err := relation.ToColumnar(base).AppendTable(delta)
			if err != nil {
				t.Fatal(err)
			}
			columnarEqual(t, label, mc, relation.ToColumnar(fresh))

			// Metric values are bit-identical (same rows, same order, same
			// summation order), on both representations.
			names := tc.table.Schema.Names()
			x, y := names[:1], names[1:2]
			if fresh.NumRows() == 0 {
				continue
			}
			cm, err1 := infotheory.Correlation(merged, x, y)
			cf, err2 := infotheory.Correlation(fresh, x, y)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: correlation errs %v %v", label, err1, err2)
			}
			if cm != cf {
				t.Fatalf("%s: row-path correlation %v != %v", label, cm, cf)
			}
			ccm, err1 := infotheory.CorrelationColumnar(mc, x, y, nil)
			ccf, err2 := infotheory.CorrelationColumnar(relation.ToColumnar(fresh), x, y, nil)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: columnar correlation errs %v %v", label, err1, err2)
			}
			if ccm != ccf || ccm != cm {
				t.Fatalf("%s: columnar correlation %v / %v / row %v", label, ccm, ccf, cm)
			}
			em, err1 := infotheory.Entropy(merged, names[0])
			ef, err2 := infotheory.Entropy(fresh, names[0])
			if err1 != nil || err2 != nil || em != ef {
				t.Fatalf("%s: entropy %v != %v (%v, %v)", label, em, ef, err1, err2)
			}
		}
	}
}

func pair2s(lo, hi float64) string { return fmt.Sprintf("(%g,%g]", lo, hi) }

// TestSampleRateValidationOrder pins the satellite: the rate is validated
// before the listing lookup, with typed sentinels.
func TestSampleRateValidationOrder(t *testing.T) {
	m := demoMarket()
	if _, _, err := m.Sample(bg, "no-such-dataset", []string{"k"}, 7, 1); !errors.Is(err, ErrBadRate) {
		t.Fatalf("bad rate on unknown dataset should report the rate first: %v", err)
	}
	if _, _, err := m.Sample(bg, "no-such-dataset", []string{"k"}, 0.5, 1); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("unknown dataset sentinel missing: %v", err)
	}
	if _, _, err := m.SampleDelta(bg, "alpha", []string{"k"}, 0.5, 0.5, 1); !errors.Is(err, ErrBadRate) {
		t.Fatalf("from == to should be ErrBadRate: %v", err)
	}
	if _, _, err := m.SampleDelta(bg, "alpha", []string{"k"}, -0.1, 0.5, 1); !errors.Is(err, ErrBadRate) {
		t.Fatalf("negative from should be ErrBadRate: %v", err)
	}
	if _, _, err := m.SampleDelta(bg, "alpha", []string{"k"}, 0.5, 1.5, 1); !errors.Is(err, ErrBadRate) {
		t.Fatalf("to > 1 should be ErrBadRate: %v", err)
	}
	if _, _, err := m.SampleDelta(bg, "zzz", []string{"k"}, 0.2, 0.5, 1); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("unknown dataset sentinel missing on delta: %v", err)
	}
}

// TestSampleDeltaOverHTTP drives the new endpoint through the wire and
// checks it matches the in-memory behavior bit for bit (CSV round trip
// preserves values exactly).
func TestSampleDeltaOverHTTP(t *testing.T) {
	backend := demoMarket()
	srv := httptest.NewServer(Handler(backend))
	defer srv.Close()
	c := NewClient(srv.URL)

	remote, price, err := c.SampleDelta(bg, "alpha", []string{"k"}, 0.2, 0.7, 9)
	if err != nil {
		t.Fatal(err)
	}
	direct, directPrice, err := backend.SampleDelta(bg, "alpha", []string{"k"}, 0.2, 0.7, 9)
	if err != nil {
		t.Fatal(err)
	}
	if price != directPrice {
		t.Fatalf("delta price over http %v != direct %v", price, directPrice)
	}
	rowsEqual(t, "http delta", remote, direct)

	// Typed sentinels survive the wire.
	if _, _, err := c.SampleDelta(bg, "alpha", []string{"k"}, 0.9, 0.1, 9); !errors.Is(err, ErrBadRate) {
		t.Fatalf("bad rate over http: %v", err)
	}
	if _, _, err := c.SampleDelta(bg, "nope", []string{"k"}, 0.1, 0.9, 9); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("unknown dataset over http: %v", err)
	}
}

// TestSampleDeltaBare404IsFinal: a server that answers /sample_delta with a
// bare 404 (no JSON error payload) gets one attempt and a non-transient
// error, and nothing is bought in the delta's place.
func TestSampleDeltaBare404IsFinal(t *testing.T) {
	backend := demoMarket()
	var deltaHits atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/sample_delta" {
			deltaHits.Add(1)
			http.NotFound(w, r)
			return
		}
		Handler(backend).ServeHTTP(w, r)
	})
	c, _ := retryClient(t, h)
	if _, _, err := c.SampleDelta(bg, "alpha", []string{"k"}, 0.2, 0.7, 9); err == nil || isTransient(err) {
		t.Fatalf("bare 404: err %v, want a non-transient error", err)
	}
	if n := deltaHits.Load(); n != 1 {
		t.Fatalf("/sample_delta saw %d attempts, want 1", n)
	}
	if entries := backend.Ledger().Entries(); len(entries) != 0 {
		t.Fatalf("a refused delta billed %v", entries)
	}
}
