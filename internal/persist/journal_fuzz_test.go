package persist

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// fuzzLedger is the journal FuzzJournalReplay writes a prefix of: the
// persist tests' ledger entries plus amounts whose decimal forms are long,
// so a replay that is not bit for bit shows.
var fuzzLedger = []LedgerRecord{
	{Kind: "sample", ToRate: 0.3, Amount: 12.5},
	{Kind: "purchase", PlanID: "pl_1", Amount: 3.25},
	{Kind: "sample", Amount: 5},
	{Kind: "sample_delta", FromRate: 0.3, ToRate: 0.6, Amount: 0.1 + 0.2, Policy: "dance"},
	{Kind: "sample", Amount: 1},
	{Kind: "sample", Amount: 2, Policy: "tbyb"},
	{Kind: "purchase", PlanID: "pl_a", Amount: 1e-300},
	{Kind: "sample", Amount: math.Nextafter(3, 4)},
}

// FuzzJournalReplay writes n ledger records, cuts the journal at a fuzzed
// offset and appends fuzzed bytes, then reopens and replays it. Replay
// never panics. When the appended bytes hold no newline, all that follows
// the last complete line is a torn append: Open+Load succeed, restore
// exactly the records whose lines were complete, bit for bit, and a
// further append is replayed after them. Otherwise Load either fails, or
// restores the complete records in order followed only by what the damaged
// and appended lines themselves spell out — never a silently shorter
// ledger.
func FuzzJournalReplay(f *testing.F) {
	f.Add(uint8(3), uint16(math.MaxUint16), []byte(nil))
	f.Add(uint8(3), uint16(math.MaxUint16), []byte(`{"t":"ledger","ledger":{"kind":"sam`))
	f.Add(uint8(3), uint16(100), []byte(nil))
	f.Add(uint8(3), uint16(100), []byte("\n"))
	f.Add(uint8(2), uint16(math.MaxUint16), []byte(`{"t":"ledger","ledger":{"kind":"sample","amount":1}}`+"\n"))
	f.Add(uint8(8), uint16(40), []byte(`"amount":5}}`+"\n"+`{"t":"rate","rate":0.3}`))
	f.Add(uint8(1), uint16(0), []byte(`{"t":"bogus"}`+"\n"))
	f.Fuzz(func(t *testing.T, n uint8, cut uint16, tail []byte) {
		written := fuzzLedger[:int(n)%(len(fuzzLedger)+1)]
		dir := t.TempDir()
		path := filepath.Join(dir, "journal.jsonl")
		s, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range written {
			if err := s.AppendLedger(rec); err != nil {
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
		k := min(int(cut), len(data))
		complete := bytes.Count(data[:k], []byte{'\n'})
		start := bytes.LastIndexByte(data[:k], '\n') + 1
		if err := os.WriteFile(path, append(data[:k:k], tail...), 0o644); err != nil {
			t.Fatal(err)
		}

		s, err = Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.Load()
		if bytes.IndexByte(tail, '\n') < 0 {
			if err != nil {
				t.Fatalf("torn append must replay: %v", err)
			}
			checkLedger(t, "torn replay", st.Ledger, written[:complete])
			after := LedgerRecord{Kind: "purchase", PlanID: "pl_after", Amount: 0.7}
			if err := s.AppendLedger(after); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s, err = Open(dir, Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if st, err = s.Load(); err != nil {
				t.Fatalf("append after a repaired tail must replay: %v", err)
			}
			checkLedger(t, "append after repair", st.Ledger, append(written[:complete:complete], after))
			return
		}
		defer s.Close()
		if err != nil {
			return // loud failure
		}
		// Every newline-terminated line from the cut on is foreign: the
		// first glues the cut line to the appended bytes. Load succeeded, so
		// each must decode as a known record; its ledger entries follow the
		// complete ones.
		want := written[:complete:complete]
		foreign := append(data[start:k:k], tail...)
		foreign = foreign[:bytes.LastIndexByte(foreign, '\n')+1]
		for i, line := range bytes.Split(foreign[:len(foreign)-1], []byte{'\n'}) {
			if len(line) == 0 {
				continue
			}
			var rec journalRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("foreign line %d %q does not decode (%v), yet Load restored %+v", i, line, err, st.Ledger)
			}
			switch rec.T {
			case "ledger":
				if rec.Ledger != nil {
					want = append(want, *rec.Ledger)
				}
			case "plan", "dataset", "rate":
			default:
				t.Fatalf("foreign line %d has unknown type %q, yet Load succeeded", i, rec.T)
			}
		}
		checkLedger(t, "replay", st.Ledger, want)
	})
}

// checkLedger fails unless got and want hold the same records in the same
// order, amounts and rates compared bit for bit.
func checkLedger(t *testing.T, what string, got, want []LedgerRecord) {
	t.Helper()
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		g, w := got[i], want[i]
		same = g.Kind == w.Kind && g.PlanID == w.PlanID && g.Policy == w.Policy &&
			math.Float64bits(g.Amount) == math.Float64bits(w.Amount) &&
			math.Float64bits(g.FromRate) == math.Float64bits(w.FromRate) &&
			math.Float64bits(g.ToRate) == math.Float64bits(w.ToRate)
	}
	if !same {
		t.Fatalf("%s: ledger\n got %+v\nwant %+v", what, got, want)
	}
}
