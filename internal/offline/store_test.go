package offline

import (
	"context"
	"testing"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/marketplace"
	"github.com/dance-db/dance/internal/relation"
)

func demoTable(n int) *relation.Table {
	t := relation.NewTable("d", relation.NewSchema(
		relation.Cat("k", relation.KindInt),
		relation.Cat("s", relation.KindString),
	))
	for i := 0; i < n; i++ {
		t.AppendValues(relation.IntValue(int64(i%13)), relation.StringValue(string(rune('a'+i%5))))
	}
	return t
}

// sampleRange buys the (lo, hi] rows of t on k (seed 3) from a marketplace
// listing t, in the seller's canonical order.
func sampleRange(t *relation.Table, lo, hi float64) *relation.Table {
	m := marketplace.NewInMemory(nil)
	m.Register(t, nil)
	var s *relation.Table
	var err error
	if lo == 0 {
		s, _, err = m.Sample(context.Background(), t.Name, []string{"k"}, hi, 3)
	} else {
		s, _, err = m.SampleDelta(context.Background(), t.Name, []string{"k"}, lo, hi, 3)
	}
	if err != nil {
		panic(err)
	}
	return s
}

func TestStoreMergeMatchesFreshSample(t *testing.T) {
	full := demoTable(400)
	st := NewSampleStore()
	st.Replace("d", sampleRange(full, 0, 0.2), []string{"k"}, 3, 0.2, 400)
	st.CommitRate(0.2)

	snapLow := st.Snapshot()
	lowRows := snapLow.Dataset("d").Cols.NumRows()

	if _, err := st.Extend("d", sampleRange(full, 0.2, 0.6), 0.6, 400); err != nil {
		t.Fatal(err)
	}
	st.CommitRate(0.6)
	snapHigh := st.Snapshot()

	// Copy-on-write: the old snapshot still sees the old state.
	if snapLow.Dataset("d").Cols.NumRows() != lowRows {
		t.Fatal("old snapshot mutated by Extend")
	}
	if snapLow.Dataset("d").Version == snapHigh.Dataset("d").Version {
		t.Fatal("version did not bump on a non-empty merge")
	}

	fresh := sampleRange(full, 0, 0.6)
	got := snapHigh.Dataset("d").Cols.ToTable()
	if got.NumRows() != fresh.NumRows() {
		t.Fatalf("merged %d rows != fresh %d", got.NumRows(), fresh.NumRows())
	}
	for i := range fresh.Rows {
		for j := range fresh.Rows[i] {
			if !fresh.Rows[i][j].EqualValue(got.Rows[i][j]) {
				t.Fatalf("row %d differs: %v vs %v", i, got.Rows[i], fresh.Rows[i])
			}
		}
	}
	// The merged columnar matches a scratch encoding of the merged rows.
	wantCols := relation.ToColumnar(fresh)
	gotCols := snapHigh.Dataset("d").Cols
	for j := 0; j < 2; j++ {
		wc, gc := wantCols.Codes(j), gotCols.Codes(j)
		if len(wc) != len(gc) {
			t.Fatalf("col %d: %d codes != %d", j, len(gc), len(wc))
		}
		for i := range wc {
			if wc[i] != gc[i] {
				t.Fatalf("col %d row %d: code %d != %d", j, i, gc[i], wc[i])
			}
		}
	}
}

func TestStoreEmptyDeltaKeepsVersion(t *testing.T) {
	full := demoTable(100)
	st := NewSampleStore()
	st.Replace("d", sampleRange(full, 0, 0.5), []string{"k"}, 3, 0.5, 100)
	v0 := st.Snapshot().Dataset("d").Version

	empty := relation.NewTable("d", full.Schema)
	ds, err := st.Extend("d", empty, 0.55, 100)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Version != v0 {
		t.Fatalf("empty delta bumped version %d → %d", v0, ds.Version)
	}
	if ds.Rate != 0.55 {
		t.Fatalf("empty delta did not advance the covered rate: %v", ds.Rate)
	}
}

func TestStoreExtendGuards(t *testing.T) {
	st := NewSampleStore()
	if _, err := st.Extend("ghost", demoTable(1), 0.5, 1); err == nil {
		t.Fatal("extend of unknown dataset must error")
	}
	full := demoTable(50)
	st.Replace("d", sampleRange(full, 0, 0.5), []string{"k"}, 3, 0.5, 50)
	if _, err := st.Extend("d", relation.NewTable("d", full.Schema), 0.3, 50); err == nil {
		t.Fatal("rate decrease must error")
	}
	bad := relation.NewTable("d", relation.NewSchema(relation.Cat("other", relation.KindInt)))
	bad.AppendValues(relation.IntValue(1))
	if _, err := st.Extend("d", bad, 0.9, 50); err == nil {
		t.Fatal("schema mismatch must error")
	}
}

func TestStoreSetFDsBumpsOnlyOnChange(t *testing.T) {
	st := NewSampleStore()
	st.Replace("d", demoTable(10), []string{"k"}, 3, 1, 10)
	v0 := st.Snapshot().Dataset("d").Version

	fds := []fd.FD{fd.New("s", "k")}
	if err := st.SetFDs("d", fds); err != nil {
		t.Fatal(err)
	}
	v1 := st.Snapshot().Dataset("d").Version
	if v1 == v0 {
		t.Fatal("FD change must bump the version (quality caches depend on FDs)")
	}
	if err := st.SetFDs("d", fds); err != nil {
		t.Fatal(err)
	}
	if st.Snapshot().Dataset("d").Version != v1 {
		t.Fatal("re-publishing identical FDs must not bump the version")
	}

	// First resolution to an *empty* set records the non-nil marker (so
	// discovery isn't re-run over unchanged rows) without a version bump.
	st.Replace("e", demoTable(10), []string{"k"}, 3, 1, 10)
	ve := st.Snapshot().Dataset("e").Version
	if st.Snapshot().Dataset("e").FDs != nil {
		t.Fatal("FDs must start unresolved (nil)")
	}
	if err := st.SetFDs("e", nil); err != nil {
		t.Fatal(err)
	}
	ds := st.Snapshot().Dataset("e")
	if ds.FDs == nil || len(ds.FDs) != 0 {
		t.Fatalf("empty resolution must store a non-nil marker: %#v", ds.FDs)
	}
	if ds.Version != ve {
		t.Fatal("empty first resolution must not bump the version")
	}
}

func TestStoreRetain(t *testing.T) {
	st := NewSampleStore()
	st.Replace("a", demoTable(5), []string{"k"}, 1, 1, 5)
	st.Replace("b", demoTable(5), []string{"k"}, 1, 1, 5)
	st.Retain(map[string]bool{"b": true})
	snap := st.Snapshot()
	if snap.Dataset("a") != nil || snap.Dataset("b") == nil {
		t.Fatalf("retain kept the wrong datasets: %v", snap.order)
	}
	if got := snap.Datasets(); len(got) != 1 || got[0].Name != "b" {
		t.Fatalf("Datasets() = %v", got)
	}
}
