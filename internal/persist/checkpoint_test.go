package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/relation"
)

// storeOp is one Store call of a test history.
type storeOp func(Store) error

// checkpointOps is a deterministic history of n Store calls mixing every
// record kind: ledger entries (signed zeros and long decimal amounts
// among them), plans and datasets saved and re-saved under the same keys,
// and rate changes.
func checkpointOps(n int) []storeOp {
	ops := make([]storeOp, n)
	for i := range ops {
		i := i
		switch i % 5 {
		case 0, 1:
			e := fuzzLedger[i%len(fuzzLedger)]
			if i%7 == 0 {
				e.Amount = math.Copysign(0, -1)
			}
			ops[i] = func(s Store) error { return s.AppendLedger(e) }
		case 2:
			p := PlanRecord{
				ID:      fmt.Sprintf("pl_%d", i%4),
				Queries: []QueryRecord{{Instance: "bridge", Attrs: []string{"zip", "y"}}},
				Steps:   []JoinStepRecord{{Table: "own"}, {Table: "bridge", On: []string{"zip"}}},
				Weight:  float64(i) / 3,
				FDs:     []fd.FD{fd.New("y", "zip")},
				Est:     MetricsRecord{Correlation: 0.1 * float64(i), Price: 3.25},
				Request: RequestRecord{TargetAttrs: []string{"x", "y"}, Budget: 10, Seed: int64(i),
					PolicyParams: map[string]float64{"eta": float64(i)}},
			}
			ops[i] = func(s Store) error { return s.SavePlan(p) }
		case 3:
			name := fmt.Sprintf("d%d", i%3)
			rec := DatasetRecord{Name: name, JoinAttrs: []string{"k"}, Seed: uint64(i), Rate: 0.1 * float64(i%9),
				FullRows: 100 + i, FDs: []fd.FD{fd.New("v", "k")}, FDsResolved: i%2 == 0}
			ops[i] = func(s Store) error { return s.SaveDataset(rec, testTable(name, 1+i%4)) }
		case 4:
			rate := 1 / float64(i+3)
			ops[i] = func(s Store) error { return s.SaveRate(rate) }
		}
	}
	return ops
}

// openEvery opens a NoSync store at dir that checkpoints every n records.
func openEvery(t testing.TB, dir string, n int) *FileStore {
	t.Helper()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s.setCheckpointEvery(n)
	return s
}

func apply(t testing.TB, s Store, ops []storeOp) {
	t.Helper()
	for i, op := range ops {
		if err := op(s); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
}

// fullReplay is the State a store that never checkpoints loads after ops:
// the plain JSONL replay.
func fullReplay(t testing.TB, ops []storeOp) *State {
	t.Helper()
	s := openEvery(t, t.TempDir(), math.MaxInt)
	defer s.Close()
	apply(t, s, ops)
	st, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func load(t testing.TB, s *FileStore) *State {
	t.Helper()
	st, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// checkSameState fails unless got equals want: the rate and the ledger bit
// for bit, plans and dataset records with rows in the same order.
func checkSameState(t *testing.T, what string, got, want *State) {
	t.Helper()
	if math.Float64bits(got.Rate) != math.Float64bits(want.Rate) {
		t.Fatalf("%s: rate %v, want %v", what, got.Rate, want.Rate)
	}
	checkLedger(t, what, got.Ledger, want.Ledger)
	if !reflect.DeepEqual(got.Plans, want.Plans) {
		t.Fatalf("%s: plans\n got %+v\nwant %+v", what, got.Plans, want.Plans)
	}
	same := len(got.Datasets) == len(want.Datasets)
	for i := 0; same && i < len(got.Datasets); i++ {
		g, w := got.Datasets[i], want.Datasets[i]
		same = reflect.DeepEqual(g.DatasetRecord, w.DatasetRecord) && csvOf(t, g.Table) == csvOf(t, w.Table)
	}
	if !same {
		t.Fatalf("%s: datasets\n got %+v\nwant %+v", what, got.Datasets, want.Datasets)
	}
}

func csvOf(t *testing.T, tab *relation.Table) string {
	t.Helper()
	var b strings.Builder
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// journalEpoch splits a journal into the epoch its header names (0
// without a header) and the lines after the header.
func journalEpoch(data []byte) (uint64, []byte) {
	var rec journalRecord
	if i := bytes.IndexByte(data, '\n'); i >= 0 && json.Unmarshal(data[:i], &rec) == nil && rec.T == "epoch" && rec.Epoch != nil {
		return *rec.Epoch, data[i+1:]
	}
	return 0, data
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// journalRecords counts the live journal's records after its header.
func journalRecords(t *testing.T, dir string) int {
	t.Helper()
	_, body := journalEpoch(readFile(t, filepath.Join(dir, journalFile)))
	return bytes.Count(body, []byte{'\n'})
}

// Loading from a checkpoint plus the journal after it returns what the
// full replay of the same history returns, wherever the checkpoints fall;
// so does a cold reopen.
func TestCheckpointLoadEqualsFullReplay(t *testing.T) {
	ops := checkpointOps(41)
	want := fullReplay(t, ops)
	for _, every := range []int{1, 2, 3, 7, 16, 40, 41} {
		t.Run(fmt.Sprintf("every=%d", every), func(t *testing.T) {
			dir := t.TempDir()
			s := openEvery(t, dir, every)
			apply(t, s, ops)
			checkSameState(t, "live", load(t, s), want)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(filepath.Join(dir, checkpointFile)); err != nil {
				t.Fatalf("no checkpoint after %d records: %v", len(ops), err)
			}
			s = openEvery(t, dir, every)
			defer s.Close()
			checkSameState(t, "reopened", load(t, s), want)
		})
	}
}

// After k·every appends the journal holds fewer than every records.
func TestCheckpointBoundsJournal(t *testing.T) {
	const every = 8
	dir := t.TempDir()
	s := openEvery(t, dir, every)
	defer s.Close()
	for k := 1; k <= 4; k++ {
		for i := 0; i < every; i++ {
			if err := s.AppendLedger(LedgerRecord{Kind: "sample", Amount: float64(k*every + i)}); err != nil {
				t.Fatal(err)
			}
		}
		if n := journalRecords(t, dir); n >= every {
			t.Fatalf("after %d appends the journal holds %d records", k*every, n)
		}
		if st := load(t, s); len(st.Ledger) != k*every {
			t.Fatalf("after %d appends the ledger holds %d entries", k*every, len(st.Ledger))
		}
	}
}

// A crash after each step of a checkpoint's publication neither loses nor
// double-counts a record: Open + Load return the full replay of every
// append that was made, and the reopened store goes on appending and
// checkpointing. The "header torn" case is a crash inside the journal
// rewrite, after the truncation and before the header line was whole.
func TestCheckpointCrashPoints(t *testing.T) {
	const every = 8
	ops := checkpointOps(40)
	for _, tc := range []struct{ name, step, journal string }{
		{"temp_written", stepTempWritten, ""},
		{"checkpoint_renamed", stepRenamed, ""},
		{"header_torn", stepRenamed, `{"t":"epo`},
		{"journal_rewritten", stepJournalRewritten, ""},
	} {
		step := tc.step
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openEvery(t, dir, every)
			defer s.Close()
			apply(t, s, ops[:every+3]) // past one checkpoint
			s.setStopAfter(step)
			crashed := -1
			for i := every + 3; i < len(ops) && crashed < 0; i++ {
				if err := ops[i](s); errors.Is(err, errStopped) {
					crashed = i
				} else if err != nil {
					t.Fatal(err)
				}
			}
			if crashed < 0 {
				t.Fatal("no checkpoint reached the fault point")
			}
			if err := s.AppendLedger(LedgerRecord{Kind: "sample", Amount: 1}); err == nil {
				t.Fatal("a store stopped mid-checkpoint must refuse appends")
			}
			temps, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.tmp"))
			if step == stepTempWritten && len(temps) != 1 {
				t.Fatalf("temp files after the crash: %v", temps)
			}
			if tc.journal != "" {
				if err := os.WriteFile(filepath.Join(dir, journalFile), []byte(tc.journal), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			r := openEvery(t, dir, every)
			defer r.Close()
			checkSameState(t, "recovered", load(t, r), fullReplay(t, ops[:crashed+1]))
			if temps, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.tmp")); len(temps) != 0 {
				t.Fatalf("Open left temp files: %v", temps)
			}
			cpEpoch, _, _, err := decodeCheckpoint(readFile(t, filepath.Join(dir, checkpointFile)))
			if err != nil {
				t.Fatal(err)
			}
			if jEpoch, _ := journalEpoch(readFile(t, filepath.Join(dir, journalFile))); jEpoch != cpEpoch {
				t.Fatalf("reopened journal extends epoch %d, checkpoint holds %d", jEpoch, cpEpoch)
			}

			apply(t, r, ops[crashed+1:])
			checkSameState(t, "after recovery", load(t, r), fullReplay(t, ops))
		})
	}
}

// A journal written before checkpoints existed loads as before, and the
// first append past the interval folds it into a checkpoint.
func TestCheckpointLegacyJournal(t *testing.T) {
	ops := checkpointOps(30)
	dir := t.TempDir()
	s := openEvery(t, dir, math.MaxInt)
	apply(t, s, ops[:29])
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openEvery(t, dir, 10)
	defer s.Close()
	checkSameState(t, "legacy", load(t, s), fullReplay(t, ops[:29]))
	apply(t, s, ops[29:])
	if n := journalRecords(t, dir); n != 0 {
		t.Fatalf("the first append past the interval left %d journal records", n)
	}
	checkSameState(t, "checkpointed", load(t, s), fullReplay(t, ops))
}

// Damage to the checkpoint or to the journal's header, or the loss of the
// checkpoint under a journal that extends it, fails Load and every append,
// and leaves the journal as it is: the journal alone would be a silently
// shorter ledger, and a damaged header must not pass for the journal a
// checkpoint folded in.
func TestCheckpointDamageFailsLoad(t *testing.T) {
	// flip XORs x into the byte of path at offset at (negative: from the
	// end).
	flip := func(t *testing.T, path string, at int, x byte) {
		t.Helper()
		data := readFile(t, path)
		if at < 0 {
			at += len(data)
		}
		data[at] ^= x
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// setEpoch rewrites the journal header's epoch digit; the header is
	// {"t":"epoch","epoch":3}.
	setEpoch := func(t *testing.T, path string, digit byte) {
		t.Helper()
		data := readFile(t, path)
		i := bytes.IndexByte(data, '}') - 1
		if data[i] != '3' {
			t.Fatalf("journal header %q does not hold epoch 3", data[:i+2])
		}
		data[i] = digit
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, cp, journal string)
	}{
		{"checkpoint flipped byte", func(t *testing.T, cp, _ string) { flip(t, cp, -100, 1) }},
		{"checkpoint removed", func(t *testing.T, cp, _ string) {
			if err := os.Remove(cp); err != nil {
				t.Fatal(err)
			}
		}},
		{"journal header not JSON", func(t *testing.T, _, journal string) { flip(t, journal, 0, 0x20) }},
		{"journal header epoch lowered by one", func(t *testing.T, _, journal string) { setEpoch(t, journal, '2') }},
		{"journal header epoch lowered by two", func(t *testing.T, _, journal string) { setEpoch(t, journal, '1') }},
		{"journal header epoch raised", func(t *testing.T, _, journal string) { setEpoch(t, journal, '4') }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openEvery(t, dir, 4)
			apply(t, s, checkpointOps(14)) // three checkpoints and two records
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			journal := filepath.Join(dir, journalFile)
			tc.damage(t, filepath.Join(dir, checkpointFile), journal)
			damaged := readFile(t, journal)
			s, err := Open(dir, Options{})
			if err != nil {
				return // loud
			}
			defer s.Close()
			if st, err := s.Load(); err == nil {
				t.Fatalf("the damage must fail the load; ledger = %+v", st.Ledger)
			}
			if err := s.AppendLedger(LedgerRecord{Kind: "sample", Amount: 1}); err == nil {
				t.Fatal("the damage must fail an append")
			}
			if got := readFile(t, journal); !bytes.Equal(got, damaged) {
				t.Fatalf("the damaged journal was rewritten:\n got %q\nwant %q", got, damaged)
			}
		})
	}
}

// A checkpoint that fails before its rename (here: its temp file cannot be
// created) does not fail the append that triggered it, whose record is
// durable. The old checkpoint and journal stand, and the store tries again
// only after another full interval.
func TestCheckpointFailureBeforeRename(t *testing.T) {
	const every = 4
	ops := checkpointOps(2*every + 2)
	dir := t.TempDir()
	s := openEvery(t, dir, every)
	defer s.Close()
	createTemp = func(string, string) (*os.File, error) { return nil, errors.New("no space left on device") }
	defer func() { createTemp = os.CreateTemp }()
	apply(t, s, ops[:every])
	if _, err := os.Stat(filepath.Join(dir, checkpointFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a checkpoint was published: %v", err)
	}
	if n := journalRecords(t, dir); n != every {
		t.Fatalf("the journal holds %d records, want %d", n, every)
	}
	checkSameState(t, "after the failed checkpoint", load(t, s), fullReplay(t, ops[:every]))

	createTemp = os.CreateTemp
	apply(t, s, ops[every:2*every-1])
	if n := journalRecords(t, dir); n != 2*every-1 {
		t.Fatalf("the store checkpointed before another interval: the journal holds %d records", n)
	}
	apply(t, s, ops[2*every-1:])
	if n := journalRecords(t, dir); n != len(ops)-2*every {
		t.Fatalf("the journal holds %d records after the retried checkpoint", n)
	}
	checkSameState(t, "after the retried checkpoint", load(t, s), fullReplay(t, ops))
	if temps, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.tmp")); len(temps) != 0 {
		t.Fatalf("temp files left: %v", temps)
	}
}
