package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/relation"
)

func testTable(name string, rows int) *relation.Table {
	t := relation.NewTable(name, relation.NewSchema(
		relation.Cat("k", relation.KindString),
		relation.Num("v", relation.KindFloat),
	))
	for i := 0; i < rows; i++ {
		t.Append([]relation.Value{
			relation.StringValue(strings.Repeat("k", i+1)),
			relation.FloatValue(float64(i) / 3),
		})
	}
	return t
}

func TestFileStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendLedger(LedgerRecord{Kind: "sample", ToRate: 0.3, Amount: 12.5}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendLedger(LedgerRecord{Kind: "purchase", PlanID: "pl_1", Amount: 3.25}); err != nil {
		t.Fatal(err)
	}
	plan := PlanRecord{
		ID:      "pl_1",
		Queries: []QueryRecord{{Instance: "bridge", Attrs: []string{"zip", "y"}}},
		Steps:   []JoinStepRecord{{Table: "own"}, {Table: "bridge", On: []string{"zip"}}},
		Weight:  1.5,
		FDs:     []fd.FD{fd.New("y", "zip")},
		Est:     MetricsRecord{Correlation: 0.9, Price: 3.25},
		Request: RequestRecord{TargetAttrs: []string{"x", "y"}, Budget: 10, Seed: 7},
	}
	if err := s.SavePlan(plan); err != nil {
		t.Fatal(err)
	}
	tab := testTable("bridge", 4)
	rec := DatasetRecord{
		Name: "bridge", JoinAttrs: []string{"zip"}, Seed: 42, Rate: 0.3,
		FullRows: 100, FDs: []fd.FD{fd.New("y", "zip")}, FDsResolved: true,
	}
	if err := s.SaveDataset(rec, tab); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveRate(0.3); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen cold, as a restarted danced would.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rate != 0.3 {
		t.Errorf("rate = %v, want 0.3", st.Rate)
	}
	if len(st.Ledger) != 2 || st.Ledger[0].Amount != 12.5 || st.Ledger[1].PlanID != "pl_1" {
		t.Errorf("ledger = %+v", st.Ledger)
	}
	if len(st.Plans) != 1 {
		t.Fatalf("plans = %+v", st.Plans)
	}
	if got := st.Plans[0]; !reflect.DeepEqual(got, plan) {
		t.Errorf("plan round trip:\n got %+v\nwant %+v", got, plan)
	}
	if len(st.Datasets) != 1 {
		t.Fatalf("datasets = %+v", st.Datasets)
	}
	ds := st.Datasets[0]
	if ds.Name != "bridge" || ds.Rate != 0.3 || ds.FullRows != 100 || !ds.FDsResolved {
		t.Errorf("dataset meta = %+v", ds.DatasetRecord)
	}
	if ds.Table.NumRows() != 4 {
		t.Errorf("dataset rows = %d, want 4", ds.Table.NumRows())
	}
	if !reflect.DeepEqual(ds.Table.Schema.Columns(), tab.Schema.Columns()) {
		t.Errorf("schema did not round trip: %+v vs %+v", ds.Table.Schema.Columns(), tab.Schema.Columns())
	}
}

// TestFileStoreLastWins: re-saving a dataset or plan replaces the earlier
// record on replay; ledger entries accumulate.
func TestFileStoreLastWins(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := DatasetRecord{Name: "d", JoinAttrs: []string{"k"}, Rate: 0.3, FullRows: 10}
	if err := s.SaveDataset(rec, testTable("d", 2)); err != nil {
		t.Fatal(err)
	}
	rec.Rate = 0.6
	if err := s.SaveDataset(rec, testTable("d", 5)); err != nil {
		t.Fatal(err)
	}
	if err := s.SavePlan(PlanRecord{ID: "pl_a", Weight: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.SavePlan(PlanRecord{ID: "pl_a", Weight: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveRate(0.3); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveRate(0.6); err != nil {
		t.Fatal(err)
	}
	st, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Datasets) != 1 || st.Datasets[0].Rate != 0.6 || st.Datasets[0].Table.NumRows() != 5 {
		t.Errorf("datasets = %+v", st.Datasets)
	}
	if len(st.Plans) != 1 || st.Plans[0].Weight != 2 {
		t.Errorf("plans = %+v", st.Plans)
	}
	if st.Rate != 0.6 {
		t.Errorf("rate = %v", st.Rate)
	}
}

// TestFileStoreTornTail: a crash mid-append leaves a half-written final
// line; replay drops it and keeps everything before it.
func TestFileStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendLedger(LedgerRecord{Kind: "sample", Amount: 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "journal.jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"ledger","ledger":{"kind":"sam`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen repairs the tail; the recovered state drops the torn record
	// and the next append starts a fresh, parseable line.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st, err := s2.Load()
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if len(st.Ledger) != 1 || st.Ledger[0].Amount != 5 {
		t.Errorf("ledger = %+v", st.Ledger)
	}
	if err := s2.AppendLedger(LedgerRecord{Kind: "sample", Amount: 2}); err != nil {
		t.Fatal(err)
	}
	st, err = s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Ledger) != 2 || st.Ledger[1].Amount != 2 {
		t.Errorf("ledger after repaired append = %+v", st.Ledger)
	}
}

// TestFileStoreMidFileCorruption: damage to any complete line — one that
// ends in a newline, the final line included — is an error, never a silent
// skip. Only an unterminated final fragment is a torn append.
func TestFileStoreMidFileCorruption(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(t *testing.T, dir, path string)
	}{
		{"torn line mid-file", func(t *testing.T, _, path string) {
			content := `{"t":"ledger","ledger":{"kind":"sam` + "\n" +
				`{"t":"ledger","ledger":{"kind":"sample","amount":1}}` + "\n"
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"flipped byte in the newline-terminated final line", func(t *testing.T, dir, path string) {
			s, err := Open(dir, Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, amount := range []float64{1, 2, 3} {
				if err := s.AppendLedger(LedgerRecord{Kind: "sample", Amount: amount}); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			last := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
			data[last] ^= 0x20 // '{' becomes '['; the '\n' stays
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.write(t, dir, filepath.Join(dir, "journal.jsonl"))
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if st, err := s.Load(); err == nil {
				t.Fatalf("corruption must be reported, not skipped; ledger = %+v", st.Ledger)
			}
		})
	}
}

func TestFileStoreEmptyAndMissing(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rate != 0 || len(st.Ledger) != 0 || len(st.Plans) != 0 || len(st.Datasets) != 0 {
		t.Errorf("fresh store not empty: %+v", st)
	}
}

func TestFileStoreClosedAppend(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendLedger(LedgerRecord{Kind: "sample", Amount: 1}); err == nil {
		t.Fatal("append on a closed store must fail")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestFileStoreMissingSideFile(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.SaveDataset(DatasetRecord{Name: "d", Rate: 0.3}, testTable("d", 1)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, datasetFile("d"))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(); err == nil {
		t.Fatal("missing dataset side file must be reported")
	}
}
