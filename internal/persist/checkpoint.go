package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// checkpointEvery is how many journal records a FileStore appends before it
// folds the journal into a checkpoint and truncates it. A restart replays
// fewer than this many JSON lines on top of the checkpoint; each checkpoint
// rewrites the whole ledger, so a smaller interval trades write volume for
// a shorter replay.
const checkpointEvery = 4096

// checkpointMagic opens every checkpoint file; the byte after it is the
// format version.
const checkpointMagic = "DANCECKP"

const checkpointVersion = 2

// Checkpoint publication steps, in order. A FileStore can be told to stop
// after one of them, as a crash there would (see stopAfter).
const (
	stepTempWritten      = "temp written"
	stepRenamed          = "checkpoint renamed"
	stepJournalRewritten = "journal rewritten"
)

// errStopped is the simulated crash of a stopAfter fault point.
var errStopped = errors.New("persist: stopped at a checkpoint fault point")

// createTemp creates a checkpoint's temp file (tests replace it to make
// the creation fail).
var createTemp = os.CreateTemp

// checkpoint is the gob-encoded body of a checkpoint file. The ledger is
// stored as columns and every float as its IEEE-754 bits: gob leaves out a
// struct field equal to zero, so a −0 amount in a LedgerRecord would come
// back as +0.
type checkpoint struct {
	// Epoch counts checkpoints from 1.
	Epoch uint64
	// Folded is the sha256 of the journal this checkpoint folded in. Until
	// that journal is truncated it is still on disk, and this is how replay
	// knows to skip it.
	Folded [sha256.Size]byte
	Rate   uint64
	// Kinds, PlanIDs and Policies hold one string per ledger entry; Floats
	// holds three per entry: from_rate, to_rate and amount.
	Kinds, PlanIDs, Policies []string
	Floats                   []uint64
	// Meta holds the plans and dataset records as JSON, the encoding they
	// are journaled in, so they decode as a replay of the journal would.
	Meta []byte
}

// checkpointMeta is a checkpoint's JSON section.
type checkpointMeta struct {
	Plans    []PlanRecord    `json:"plans"`
	Datasets []DatasetRecord `json:"datasets"`
}

// encodeCheckpoint renders st, without dataset rows, as the checkpoint of
// epoch that folds in the journal whose sha256 is folded. The file is
// "DANCECKP", a version byte, the gob-encoded checkpoint, and the sha256
// of everything before it.
func encodeCheckpoint(epoch uint64, folded [sha256.Size]byte, st *State) ([]byte, error) {
	meta := checkpointMeta{Plans: st.Plans}
	for _, d := range st.Datasets {
		meta.Datasets = append(meta.Datasets, d.DatasetRecord)
	}
	js, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("persist: encoding checkpoint: %w", err)
	}
	cp := checkpoint{
		Epoch: epoch, Folded: folded, Rate: math.Float64bits(st.Rate), Meta: js,
		Kinds:    make([]string, len(st.Ledger)),
		PlanIDs:  make([]string, len(st.Ledger)),
		Policies: make([]string, len(st.Ledger)),
		Floats:   make([]uint64, 0, 3*len(st.Ledger)),
	}
	for i, e := range st.Ledger {
		cp.Kinds[i], cp.PlanIDs[i], cp.Policies[i] = e.Kind, e.PlanID, e.Policy
		cp.Floats = append(cp.Floats, math.Float64bits(e.FromRate), math.Float64bits(e.ToRate), math.Float64bits(e.Amount))
	}
	buf := bytes.NewBufferString(checkpointMagic)
	buf.WriteByte(checkpointVersion)
	if err := gob.NewEncoder(buf).Encode(&cp); err != nil {
		return nil, fmt.Errorf("persist: encoding checkpoint: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return append(buf.Bytes(), sum[:]...), nil
}

// decodeCheckpoint verifies a checkpoint file's checksum and decodes it
// into its epoch, the sha256 of the journal it folded in, and its State
// (without dataset rows). Any damage fails loudly: a checkpoint folds
// journal records that no longer exist anywhere else, so there is nothing
// to fall back to.
func decodeCheckpoint(data []byte) (uint64, [sha256.Size]byte, *State, error) {
	var cp checkpoint
	if len(data) < len(checkpointMagic)+1+sha256.Size {
		return 0, cp.Folded, nil, fmt.Errorf("persist: checkpoint truncated (%d bytes)", len(data))
	}
	body, sum := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if got := sha256.Sum256(body); !bytes.Equal(got[:], sum) {
		return 0, cp.Folded, nil, fmt.Errorf("persist: checkpoint checksum mismatch")
	}
	if !bytes.HasPrefix(body, []byte(checkpointMagic)) {
		return 0, cp.Folded, nil, fmt.Errorf("persist: not a checkpoint file")
	}
	if v := body[len(checkpointMagic)]; v != checkpointVersion {
		return 0, cp.Folded, nil, fmt.Errorf("persist: unknown checkpoint version %d", v)
	}
	if err := gob.NewDecoder(bytes.NewReader(body[len(checkpointMagic)+1:])).Decode(&cp); err != nil {
		return 0, cp.Folded, nil, fmt.Errorf("persist: checkpoint: %w", err)
	}
	n := len(cp.Kinds)
	if cp.Epoch == 0 || len(cp.PlanIDs) != n || len(cp.Policies) != n || len(cp.Floats) != 3*n {
		return 0, cp.Folded, nil, fmt.Errorf("persist: checkpoint: malformed epoch %d or ledger columns", cp.Epoch)
	}
	var meta checkpointMeta
	if err := json.Unmarshal(cp.Meta, &meta); err != nil {
		return 0, cp.Folded, nil, fmt.Errorf("persist: checkpoint plans and datasets: %w", err)
	}
	st := &State{Rate: math.Float64frombits(cp.Rate), Plans: meta.Plans}
	if n > 0 {
		st.Ledger = make([]LedgerRecord, n)
	}
	for i := range st.Ledger {
		f := cp.Floats[3*i:]
		st.Ledger[i] = LedgerRecord{Kind: cp.Kinds[i], PlanID: cp.PlanIDs[i], Policy: cp.Policies[i],
			FromRate: math.Float64frombits(f[0]), ToRate: math.Float64frombits(f[1]), Amount: math.Float64frombits(f[2])}
	}
	for _, d := range meta.Datasets {
		st.Datasets = append(st.Datasets, Dataset{DatasetRecord: d})
	}
	return cp.Epoch, cp.Folded, st, nil
}

// checkpointLocked folds the journal into a new checkpoint and truncates
// the journal to the header of the checkpoint's epoch. The order makes
// every crash point recoverable: until the rename the old checkpoint and
// journal stand; after it the journal is the one the new checkpoint
// folded in, which replay skips, and the next process's readLocked
// finishes the truncation. The record that triggered the checkpoint is
// already durable, so a failure before the rename is not the caller's: it
// leaves the old files standing, and the store tries again after another
// interval. The caller holds s.mu.
func (s *FileStore) checkpointLocked() error {
	tmp, err := s.writeCheckpointLocked()
	if err == nil {
		err = os.Rename(tmp, filepath.Join(s.dir, checkpointFile))
	}
	if errors.Is(err, errStopped) {
		return err
	}
	if err != nil {
		if tmp != "" {
			os.Remove(tmp)
		}
		s.records = 0
		return nil
	}
	// The new checkpoint may now be live, and it folds the journal in:
	// an append to the old journal would be lost on replay, so a failure
	// from here on stops the store until it is reopened.
	err = syncDir(s.dir)
	if err == nil {
		err = s.stopLocked(stepRenamed)
	}
	if err == nil {
		_, err = s.truncateJournalLocked(s.epoch + 1)
	}
	if err == nil {
		err = s.stopLocked(stepJournalRewritten)
	}
	if err != nil {
		s.failed = fmt.Errorf("persist: checkpoint: %w", err)
		return s.failed
	}
	return nil
}

// writeCheckpointLocked writes the next checkpoint to a temp file, fsynced,
// and returns its name ("" if none was created). The caller holds s.mu.
func (s *FileStore) writeCheckpointLocked() (string, error) {
	st, journal, err := s.readLocked()
	if err != nil {
		return "", err
	}
	data, err := encodeCheckpoint(s.epoch+1, sha256.Sum256(journal), st)
	if err != nil {
		return "", err
	}
	f, err := createTemp(s.dir, "checkpoint-*.tmp")
	if err != nil {
		return "", err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.stopLocked(stepTempWritten)
	}
	return f.Name(), err
}

// truncateJournalLocked empties the journal and writes the header of
// epoch, which it returns. A crash before the header is durable leaves a
// journal without a complete line, which replay, like the untruncated
// journal, treats as folded in. The caller holds s.mu.
func (s *FileStore) truncateJournalLocked(epoch uint64) ([]byte, error) {
	header, err := json.Marshal(journalRecord{T: "epoch", Epoch: &epoch})
	if err != nil {
		return nil, err
	}
	header = append(header, '\n')
	if err := s.journal.Truncate(0); err != nil {
		return nil, err
	}
	if _, err := s.journal.Write(header); err != nil {
		return nil, err
	}
	if err := s.journal.Sync(); err != nil {
		return nil, err
	}
	s.epoch, s.records = epoch, 0
	return header, nil
}

// stopLocked simulates a crash after step when the store was told to stop
// there: the store refuses all further appends and leaves its files as
// they are. The caller holds s.mu.
func (s *FileStore) stopLocked(step string) error {
	if s.stopAfter != step {
		return nil
	}
	s.failed = errStopped
	return errStopped
}

// syncDir makes a rename in dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
