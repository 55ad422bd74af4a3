package core

import (
	"math"
	"slices"
	"testing"

	"github.com/dance-db/dance/internal/offline"
	"github.com/dance-db/dance/internal/persist"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/search"
)

// TestPersistMakesRestartFree: a middleware journaling to a persist.Store is
// abandoned without any shutdown (fsync'd journal ≙ kill -9); a fresh
// middleware over the same directory restores the sample store from disk and
// its Offline round buys nothing from the marketplace. The journal is written
// from each dataset's encoding, so the restored encodings must equal the
// merged ones code for code — also after a Replace + Extend round over a
// float column holding both 0 and -0, which share one dictionary code and
// are written as that code's first value.
func TestPersistMakesRestartFree(t *testing.T) {
	for _, tc := range []struct {
		name     string
		rate     float64
		escalate bool
	}{
		{"replace", 0.6, false},
		{"replace+extend with signed zeros", 0.3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m, src := buildScenario(11)
			if tc.escalate {
				m.Register(signedZeros(), nil)
			}
			st, err := persist.Open(dir, persist.Options{})
			if err != nil {
				t.Fatal(err)
			}
			d := New(m, Config{SampleRate: tc.rate, SampleSeed: 9, Persist: st})
			d.AddSource(src, nil)
			if err := d.Offline(bg); err != nil {
				t.Fatal(err)
			}
			if tc.escalate {
				if ok, err := d.Escalate(bg); err != nil || !ok {
					t.Fatalf("Escalate = %v, %v", ok, err)
				}
				if rounds := d.SampleRounds(); len(rounds) != 2 || rounds[1].DeltaCost <= 0 {
					t.Fatalf("rounds = %+v, want a full round then a delta round", rounds)
				}
			}
			spent := m.Ledger().Total()
			if spent <= 0 {
				t.Fatal("first offline round should cost money")
			}
			// Crash: no Close, no flush beyond the per-append fsyncs.

			st2, err := persist.Open(dir, persist.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			d2 := New(m, Config{SampleRate: tc.rate, SampleSeed: 9, Persist: st2})
			d2.AddSource(src, nil)
			if err := d2.Offline(bg); err != nil {
				t.Fatal(err)
			}
			if got := m.Ledger().Total(); got != spent {
				t.Fatalf("restarted offline re-bought samples: ledger %v -> %v", spent, got)
			}
			if d2.SampleCost() != 0 {
				t.Fatalf("restarted middleware claims sample spend %v", d2.SampleCost())
			}
			if d2.SampleRate() != d.SampleRate() {
				t.Fatalf("restored rate = %v, want %v", d2.SampleRate(), d.SampleRate())
			}
			assertSameEncodings(t, d.store.Snapshot(), d2.store.Snapshot())

			// The restored graph answers requests like the original.
			plan, err := d2.Acquire(bg, acquisitionRequest())
			if err != nil {
				t.Fatal(err)
			}
			want, err := d.Acquire(bg, acquisitionRequest())
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(plan.Est.Correlation-want.Est.Correlation) > 1e-12 {
				t.Fatalf("restored estimate %v != original %v", plan.Est.Correlation, want.Est.Correlation)
			}
		})
	}
}

// signedZeros is a listing joinable on key1 whose float column z holds 0
// in its first half and -0 in its second, so every key's rows carry 0
// before -0.
func signedZeros() *relation.Table {
	t := relation.NewTable("signed", relation.NewSchema(
		relation.Cat("key1", relation.KindInt),
		relation.Num("z", relation.KindFloat),
	))
	for i := 0; i < 120; i++ {
		z := 0.0
		if i >= 60 {
			z = math.Copysign(0, -1)
		}
		t.AppendValues(relation.IntValue(int64(i%12)), relation.FloatValue(z))
	}
	return t
}

// assertSameEncodings checks that every dataset of want is in got with the
// same row count, codes and dictionaries (values compared bit for bit).
func assertSameEncodings(t *testing.T, want, got *offline.Snapshot) {
	t.Helper()
	if len(got.Datasets()) != len(want.Datasets()) {
		t.Fatalf("restored %d datasets, want %d", len(got.Datasets()), len(want.Datasets()))
	}
	for _, w := range want.Datasets() {
		g := got.Dataset(w.Name)
		if g == nil {
			t.Fatalf("dataset %s not restored", w.Name)
		}
		wc, gc := w.Cols, g.Cols
		if gc.NumRows() != wc.NumRows() || !gc.Schema().Equal(wc.Schema()) {
			t.Fatalf("%s: restored %d rows %v, want %d rows %v",
				w.Name, gc.NumRows(), gc.Schema(), wc.NumRows(), wc.Schema())
		}
		for j := 0; j < wc.Schema().Len(); j++ {
			if !slices.Equal(gc.Codes(j), wc.Codes(j)) {
				t.Fatalf("%s col %d: restored codes differ from the merged ones", w.Name, j)
			}
			wd, gd := wc.Dict(j), gc.Dict(j)
			if gd.Len() != wd.Len() {
				t.Fatalf("%s col %d: restored dictionary has %d codes, want %d", w.Name, j, gd.Len(), wd.Len())
			}
			for code := uint32(0); code < uint32(wd.Len()); code++ {
				a, b := wd.Value(code), gd.Value(code)
				if a.Kind != b.Kind || a.S != b.S || a.I != b.I || math.Float64bits(a.F) != math.Float64bits(b.F) {
					t.Fatalf("%s col %d code %d: restored %#v, want %#v", w.Name, j, code, b, a)
				}
			}
		}
	}
}

// TestPersistEscalationBuysOnlyDeltas: restarting with a higher configured
// rate tops up the restored holdings with delta purchases instead of
// re-buying full samples.
func TestPersistEscalationBuysOnlyDeltas(t *testing.T) {
	dir := t.TempDir()
	m, src := buildScenario(12)
	st, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := New(m, Config{SampleRate: 0.4, SampleSeed: 9, Persist: st})
	d.AddSource(src, nil)
	if err := d.Offline(bg); err != nil {
		t.Fatal(err)
	}
	fullBefore := m.Ledger().TotalByKind("sample")

	st2, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	d2 := New(m, Config{SampleRate: 0.8, SampleSeed: 9, Persist: st2})
	d2.AddSource(src, nil)
	if err := d2.Offline(bg); err != nil {
		t.Fatal(err)
	}
	if got := m.Ledger().TotalByKind("sample"); got != fullBefore {
		t.Fatalf("restart at a higher rate re-bought full samples: %v -> %v", fullBefore, got)
	}
	if m.Ledger().TotalByKind("sample_delta") <= 0 {
		t.Fatal("escalated restart should buy deltas")
	}
	rounds := d2.SampleRounds()
	if len(rounds) != 1 || rounds[0].FullCost != 0 || rounds[0].DeltaCost <= 0 {
		t.Fatalf("rounds = %+v", rounds)
	}
	if rounds[0].FromRate != 0.4 || rounds[0].ToRate != 0.8 {
		t.Fatalf("round rates = %+v", rounds[0])
	}
}

// TestPlanRecordExecutesLikePlan: the flattened record of a plan executes to
// the same purchase as the plan itself.
func TestPlanRecordExecutesLikePlan(t *testing.T) {
	m, src := buildScenario(13)
	d := New(m, Config{SampleRate: 0.9, SampleSeed: 5})
	d.AddSource(src, nil)
	plan, err := d.Acquire(bg, acquisitionRequest())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := plan.Record()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Steps) == 0 || rec.Weight != plan.TG.Weight() {
		t.Fatalf("record = %+v", rec)
	}
	direct, err := d.Execute(bg, plan)
	if err != nil {
		t.Fatal(err)
	}
	viaRec, err := d.ExecuteRecord(bg, rec)
	if err != nil {
		t.Fatal(err)
	}
	if direct.TotalPrice != viaRec.TotalPrice ||
		direct.Realized.Correlation != viaRec.Realized.Correlation ||
		direct.Realized.Quality != viaRec.Realized.Quality ||
		direct.Joined.NumRows() != viaRec.Joined.NumRows() {
		t.Fatalf("record execution diverged:\n direct %+v\n record %+v", direct, viaRec)
	}
}

func TestExecuteRecordNil(t *testing.T) {
	m, _ := buildScenario(14)
	d := New(m, Config{})
	if _, err := d.ExecuteRecord(bg, nil); err == nil {
		t.Fatal("nil record must fail")
	}
	if _, err := d.ExecuteRecord(bg, &PlanRecord{Request: search.Request{TargetAttrs: []string{"x", "y"}}}); err == nil {
		t.Fatal("stepless record must fail")
	}
}
