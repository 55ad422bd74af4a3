// Package persist is danced's durable offline state: a pluggable Store
// interface plus a file-backed append-log implementation that journals
// service ledger entries, stored plans, and the versioned sample store, so a
// restarted danced recovers everything it paid for from disk instead of
// re-buying it from the marketplace.
//
// The file layout is a JSONL journal, a checkpoint, and CSV side files:
//
//	<dir>/journal.jsonl       one JSON record per line, typed by "t"
//	<dir>/checkpoint.bin      the state the journal extends (absent until
//	                          the first checkpoint)
//	<dir>/datasets/<hash>.csv one per dataset, canonical prefix-order rows
//
// Dataset rows go to side files (written atomically: temp file, fsync,
// rename) because they are large and replaced wholesale per escalation; the
// journal holds only their metadata. Journal appends are fsynced by default
// — entries record money — and replay is last-wins for rates, datasets and
// plans, append-only for ledger entries. A torn final line (the crash-mid-
// append case, which never reaches its newline) is tolerated and dropped;
// a damaged newline-terminated line, the last one included, is an error,
// not a silent truncation.
//
// Every checkpointEvery records the store folds the journal into a new
// checkpoint and truncates the journal, so a restart decodes one
// checkpoint and replays a bounded tail. The checkpoint holds the replayed
// state — the rate, every ledger entry as columns of strings and float
// bits, and the last record of each plan and dataset as JSON, each in
// order of first appearance — gob-encoded under a sha256 of the whole file
// (encodeCheckpoint has the format). It also records its epoch, which
// counts checkpoints from 1, and the sha256 of the journal it folded in.
// It is published by temp file, fsync, rename and a directory fsync; then
// the journal is truncated to a header line naming the checkpoint's epoch.
// Replay applies a journal only to the checkpoint of its own epoch; a
// journal without a header is a pre-checkpoint journal and loads as
// before while there is no checkpoint. Only two other journals may stand
// next to a checkpoint, both left by a crash that cut its truncation
// short: the journal it folded in, byte for byte, and one without a
// complete line. Replay skips them, and the first Load or append finishes
// the truncation. Any other journal — a header of another epoch, a first
// line that does not decode — fails Load and every append, and is never
// truncated. A damaged or missing checkpoint under a journal that extends
// it fails Load too: the checkpoint holds records that exist nowhere else.
//
// Samples are journaled after merge, in the marketplace seller's canonical
// hash-unit prefix order (internal/marketplace/index.go), so a recovered
// dataset is bit-identical to the bought-and-merged one and remains
// extendable by future SampleDelta purchases.
package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/relation"
)

// LedgerRecord mirrors one service ledger entry.
type LedgerRecord struct {
	// Kind is "sample", "sample_delta" or "purchase".
	Kind     string  `json:"kind"`
	PlanID   string  `json:"plan_id,omitempty"`
	FromRate float64 `json:"from_rate,omitempty"`
	ToRate   float64 `json:"to_rate,omitempty"`
	Amount   float64 `json:"amount"`
	// Policy attributes the charge to the acquisition policy that incurred
	// it ("" for explicit offline refreshes and pre-policy journals).
	Policy string `json:"policy,omitempty"`
}

// QueryRecord is one projection purchase of a stored plan.
type QueryRecord struct {
	Instance string   `json:"instance"`
	Attrs    []string `json:"attrs"`
}

// JoinStepRecord is one hop of a stored plan's join path.
type JoinStepRecord struct {
	Table string   `json:"table"`
	On    []string `json:"on"`
}

// MetricsRecord mirrors the four search metrics.
type MetricsRecord struct {
	Correlation float64 `json:"correlation"`
	Quality     float64 `json:"quality"`
	Weight      float64 `json:"weight"`
	Price       float64 `json:"price"`
}

// RequestRecord echoes the acquisition request a stored plan answers —
// enough to recompute realized metrics after a restart.
type RequestRecord struct {
	SourceAttrs  []string `json:"source_attrs,omitempty"`
	TargetAttrs  []string `json:"target_attrs"`
	Budget       float64  `json:"budget,omitempty"`
	Alpha        float64  `json:"alpha,omitempty"`
	Beta         float64  `json:"beta,omitempty"`
	Iterations   int      `json:"iterations,omitempty"`
	Eta          int      `json:"eta,omitempty"`
	ResampleRate float64  `json:"resample_rate,omitempty"`
	Landmarks    int      `json:"landmarks,omitempty"`
	MaxCovers    int      `json:"max_covers,omitempty"`
	MaxIGraphs   int      `json:"max_igraphs,omitempty"`
	Seed         int64    `json:"seed,omitempty"`
	Greedy       bool     `json:"greedy,omitempty"`
	// Policy names the acquisition policy that produced the plan;
	// PolicyParams are its merged tunables. Both empty for plans journaled
	// before policies existed (they replay under the default policy).
	Policy       string             `json:"policy,omitempty"`
	PolicyParams map[string]float64 `json:"policy_params,omitempty"`
}

// PlanRecord is the serializable form of a stored acquisition plan: the
// purchases, the join path and weight of its target graph, the FD set its
// quality was judged by, and the estimates. Everything Execute needs,
// without the live joingraph the search produced.
type PlanRecord struct {
	ID      string           `json:"id"`
	Queries []QueryRecord    `json:"queries"`
	Steps   []JoinStepRecord `json:"steps"`
	Weight  float64          `json:"weight"`
	FDs     []fd.FD          `json:"fds,omitempty"`
	Est     MetricsRecord    `json:"est"`
	Evals   int              `json:"evals,omitempty"`
	Request RequestRecord    `json:"request"`
}

// DatasetRecord is the metadata of one journaled sample-store dataset; the
// rows live in the CSV side file named by File.
type DatasetRecord struct {
	Name      string   `json:"name"`
	JoinAttrs []string `json:"join_attrs"`
	Seed      uint64   `json:"seed"`
	Rate      float64  `json:"rate"`
	FullRows  int      `json:"full_rows"`
	FDs       []fd.FD  `json:"fds,omitempty"`
	// FDsResolved distinguishes "FDs were resolved, possibly to none" from
	// "never resolved" — the sample store's non-nil marker, made explicit
	// because JSON cannot tell nil from empty.
	FDsResolved bool `json:"fds_resolved,omitempty"`
	// File is the dataset's CSV side file, relative to the store root.
	File string `json:"file,omitempty"`
}

// Dataset is one recovered dataset: its journaled metadata plus the rows
// read back from the side file.
type Dataset struct {
	DatasetRecord
	Table *relation.Table
}

// State is everything a Load recovers, in journal-replay order.
type State struct {
	// Rate is the last committed store-wide sampling rate (0 when never
	// committed).
	Rate float64
	// Ledger holds every journaled ledger entry, oldest first.
	Ledger []LedgerRecord
	// Plans holds the last journaled record per plan ID, oldest-first by
	// first appearance.
	Plans []PlanRecord
	// Datasets holds the last journaled record per dataset name,
	// oldest-first by first appearance, rows included.
	Datasets []Dataset
}

// Store journals danced's durable state. Implementations must be safe for
// concurrent use. Load may be called at any time and returns the state as
// of the last completed append. A restarting danced calls it once: the
// service layer restores the ledger and plans from the State and hands it
// to the middleware, which restores the sample store from it, when both
// were given the same Store. A middleware with a Store of its own loads it
// itself.
type Store interface {
	// Load replays the journal into a State.
	Load() (*State, error)
	// AppendLedger journals one ledger entry (append-only).
	AppendLedger(rec LedgerRecord) error
	// SavePlan journals a plan (last record per ID wins).
	SavePlan(rec PlanRecord) error
	// SaveDataset writes the dataset's rows to durable storage and journals
	// its metadata (last record per name wins). rec.File is assigned by the
	// store.
	SaveDataset(rec DatasetRecord, t *relation.Table) error
	// SaveRate journals the committed store-wide sampling rate.
	SaveRate(rate float64) error
	// Flush forces buffered appends to durable storage.
	Flush() error
	// Close flushes and releases the store.
	Close() error
}

// journalRecord is the typed envelope of one journal line.
type journalRecord struct {
	T       string         `json:"t"` // "ledger", "plan", "dataset", "rate", "epoch"
	Rate    *float64       `json:"rate,omitempty"`
	Ledger  *LedgerRecord  `json:"ledger,omitempty"`
	Plan    *PlanRecord    `json:"plan,omitempty"`
	Dataset *DatasetRecord `json:"dataset,omitempty"`
	// Epoch is set only on the header line a checkpoint writes at the head
	// of the journal it truncates.
	Epoch *uint64 `json:"epoch,omitempty"`
}

// File names under the store root.
const (
	journalFile    = "journal.jsonl"
	checkpointFile = "checkpoint.bin"
)

// FileStore is the file-backed Store described in the package comment.
type FileStore struct {
	dir  string
	sync bool

	mu      sync.Mutex // lockorder: leaf
	journal *os.File   // guarded by mu
	closed  bool       // guarded by mu
	// epoch is the epoch of the live checkpoint, and of the journal
	// extending it (0: no checkpoint yet). records counts the journal's
	// records after its header, or since a checkpoint that failed before
	// its rename. Both are read from the files by the first Load or
	// append; records is -1 until then, and counted in memory after.
	epoch   uint64 // guarded by mu
	records int    // guarded by mu
	// every is the checkpoint interval in records (checkpointEvery outside
	// tests).
	every int // guarded by mu
	// failed is set when a checkpoint failed after its rename but before
	// the journal was truncated (or at a test fault point); appends would
	// then be lost, so they fail until the store is reopened.
	failed error // guarded by mu
	// stopAfter names a checkpoint step at which to stop as if crashed
	// (tests only).
	stopAfter string // guarded by mu
}

var _ Store = (*FileStore)(nil)

// Options tune a FileStore.
type Options struct {
	// NoSync skips the per-append fsync. Appends then reach the OS on every
	// call but the disk only at Flush/Close — faster, with a crash window.
	// Checkpoints are always fsynced.
	NoSync bool
}

// Open creates (or reopens) a file store rooted at dir. A torn final
// journal line — the signature a crash mid-append leaves, since records
// contain no raw newlines and a partial write persists as a prefix — is
// truncated away first, so the next append starts a fresh, parseable line
// instead of gluing onto the partial record. Temp files of a checkpoint
// that a crash cut short are removed; the first Load or append finishes
// the rest of its publication (see readLocked).
func Open(dir string, opts Options) (*FileStore, error) {
	if err := os.MkdirAll(filepath.Join(dir, "datasets"), 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	temps, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.tmp"))
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	for _, tmp := range temps {
		if err := os.Remove(tmp); err != nil {
			return nil, fmt.Errorf("persist: %w", err)
		}
	}
	path := filepath.Join(dir, journalFile)
	if err := repairTail(path); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return &FileStore{dir: dir, sync: !opts.NoSync, journal: f, records: -1, every: checkpointEvery}, nil
}

// repairTail truncates a journal that does not end in a newline back to its
// last complete line. It reads only the journal's last byte unless that
// byte shows a torn tail.
func repairTail(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("persist: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	last := []byte{'\n'}
	if info.Size() > 0 {
		if _, err := f.ReadAt(last, info.Size()-1); err != nil {
			return fmt.Errorf("persist: %w", err)
		}
	}
	if last[0] == '\n' {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := f.Truncate(int64(bytes.LastIndexByte(data, '\n') + 1)); err != nil {
		return fmt.Errorf("persist: dropping torn journal tail: %w", err)
	}
	return nil
}

// journalTail returns the records of journal that extend the checkpoint of
// epoch cpEpoch (0: none), and the journal line they start at. It accepts
// only the journals a process or a crash leaves next to that checkpoint:
// one headed by the checkpoint's epoch; with no checkpoint, one without a
// header (written before the first checkpoint, or before checkpoints
// existed); and, reported as folded, the journal the checkpoint folded in,
// whose sha256 it recorded in folded, or one without a complete line, left
// when a crash cut its truncation short. Anything else — a first line that
// does not decode, a header of another epoch — is damage, and an error.
func journalTail(journal []byte, cpEpoch uint64, folded [sha256.Size]byte) (tail []byte, firstLine int, isFolded bool, err error) {
	end := bytes.IndexByte(journal, '\n')
	if end < 0 {
		if cpEpoch > 0 {
			return nil, 0, true, nil
		}
		return journal, 1, false, nil // empty, or one torn append
	}
	var rec journalRecord
	derr := json.Unmarshal(journal[:end], &rec)
	if derr == nil && rec.T == "epoch" && rec.Epoch != nil && cpEpoch > 0 && *rec.Epoch == cpEpoch {
		return journal[end+1:], 2, false, nil
	}
	if cpEpoch > 0 && sha256.Sum256(journal) == folded {
		return nil, 0, true, nil
	}
	switch {
	case derr != nil:
		return nil, 0, false, fmt.Errorf("persist: journal line 1 corrupt: %w", derr)
	case rec.T != "epoch" && cpEpoch == 0:
		return journal, 1, false, nil
	case rec.T != "epoch":
		return nil, 0, false, fmt.Errorf("persist: journal has no epoch header, but extends checkpoint epoch %d", cpEpoch)
	case rec.Epoch == nil:
		return nil, 0, false, fmt.Errorf("persist: journal line 1: epoch header without an epoch")
	}
	return nil, 0, false, fmt.Errorf("persist: journal extends checkpoint epoch %d, but the checkpoint holds epoch %d", *rec.Epoch, cpEpoch)
}

// Dir returns the store root.
func (s *FileStore) Dir() string { return s.dir }

func (s *FileStore) append(rec journalRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("persist: encoding %s record: %w", rec.T, err)
	}
	data = append(data, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("persist: store is closed")
	}
	if s.failed != nil {
		return fmt.Errorf("persist: store must be reopened: %w", s.failed)
	}
	if s.records < 0 {
		if _, _, err := s.readLocked(); err != nil {
			return err
		}
	}
	if _, err := s.journal.Write(data); err != nil {
		return fmt.Errorf("persist: journal append: %w", err)
	}
	if s.sync {
		if err := s.journal.Sync(); err != nil {
			return fmt.Errorf("persist: journal sync: %w", err)
		}
	}
	if s.records++; s.records >= s.every {
		// The record is durable; checkpointLocked fails only when the
		// store can take no further appends.
		return s.checkpointLocked()
	}
	return nil
}

// AppendLedger implements Store.
func (s *FileStore) AppendLedger(rec LedgerRecord) error {
	return s.append(journalRecord{T: "ledger", Ledger: &rec})
}

// SavePlan implements Store.
func (s *FileStore) SavePlan(rec PlanRecord) error {
	if rec.ID == "" {
		return fmt.Errorf("persist: plan record without an ID")
	}
	return s.append(journalRecord{T: "plan", Plan: &rec})
}

// SaveRate implements Store.
func (s *FileStore) SaveRate(rate float64) error {
	return s.append(journalRecord{T: "rate", Rate: &rate})
}

// datasetFile names a dataset's CSV side file. Hashing keeps
// marketplace-controlled listing names out of the filesystem namespace
// entirely (no traversal, no case-folding collisions, no length limits).
func datasetFile(name string) string {
	sum := sha256.Sum256([]byte(name))
	return filepath.Join("datasets", hex.EncodeToString(sum[:12])+".csv")
}

// SaveDataset implements Store: rows first (atomic temp-and-rename, so a
// crash can never leave a torn CSV), then the journal record referencing
// them. A record in the journal therefore always points at complete rows.
func (s *FileStore) SaveDataset(rec DatasetRecord, t *relation.Table) error {
	rec.File = datasetFile(rec.Name)
	abs := filepath.Join(s.dir, rec.File)
	tmp, err := os.CreateTemp(filepath.Dir(abs), "tmp-*.csv")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	err = t.WriteCSV(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), abs)
	}
	if err != nil {
		return fmt.Errorf("persist: writing rows of %q: %w", rec.Name, err)
	}
	return s.append(journalRecord{T: "dataset", Dataset: &rec})
}

// Flush implements Store.
func (s *FileStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if err := s.journal.Sync(); err != nil {
		return fmt.Errorf("persist: journal sync: %w", err)
	}
	return nil
}

// Close implements Store.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.journal.Sync()
	if cerr := s.journal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("persist: close: %w", err)
	}
	return nil
}

// Load implements Store: the checkpoint, then the journal records after
// it. The journal replay tolerates exactly one torn trailing line — an
// unterminated final fragment, the crash-mid-append case — and fails
// loudly on anything else: every line that ends in a newline was written
// whole, so one that does not decode is corruption.
func (s *FileStore) Load() (*State, error) {
	s.mu.Lock()
	st, _, err := s.readLocked()
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	for i := range st.Datasets {
		if st.Datasets[i].Table, err = s.readDataset(st.Datasets[i].DatasetRecord); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// readLocked replays the checkpoint and the journal records that extend it
// into a State without dataset rows, sets the store's epoch (and, the
// first time, its record count) from them, and returns the State and the
// journal as it now stands.
// Holding s.mu keeps a checkpoint from landing between the two reads. A
// journal the checkpoint has folded in was left by a crash that cut the
// checkpoint's truncation short; readLocked finishes the truncation, so
// that no append lands in a journal replay skips. The caller holds s.mu.
func (s *FileStore) readLocked() (*State, []byte, error) {
	cp, err := os.ReadFile(filepath.Join(s.dir, checkpointFile))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	journal, err := os.ReadFile(filepath.Join(s.dir, journalFile))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	st := &State{}
	var epoch uint64
	var folded [sha256.Size]byte
	if cp != nil {
		if epoch, folded, st, err = decodeCheckpoint(cp); err != nil {
			return nil, nil, err
		}
	}
	tail, firstLine, isFolded, err := journalTail(journal, epoch, folded)
	if err != nil {
		return nil, nil, err
	}
	if isFolded {
		if journal, err = s.truncateJournalLocked(epoch); err != nil {
			return nil, nil, fmt.Errorf("persist: finishing checkpoint: %w", err)
		}
		return st, journal, nil
	}
	if err := replay(st, tail, firstLine); err != nil {
		return nil, nil, err
	}
	s.epoch = epoch
	if s.records < 0 {
		s.records = bytes.Count(tail, []byte{'\n'})
	}
	return st, journal, nil
}

// replay applies journal records, the first of them on journal line
// firstLine, to st: last-wins for the rate, plans and datasets, each kept
// in order of first appearance, and append-only for the ledger.
func replay(st *State, line []byte, firstLine int) error {
	planAt := make(map[string]int, len(st.Plans))
	for i, p := range st.Plans {
		planAt[p.ID] = i
	}
	datasetAt := make(map[string]int, len(st.Datasets))
	for i, d := range st.Datasets {
		datasetAt[d.Name] = i
	}
	for lineNo := firstLine; len(line) > 0; lineNo++ {
		raw, terminated := line, false
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			raw, line, terminated = line[:i], line[i+1:], true
		} else {
			line = nil
		}
		if len(raw) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			if !terminated {
				break // torn final append: the record never completed
			}
			return fmt.Errorf("persist: journal line %d corrupt: %w", lineNo, err)
		}
		switch rec.T {
		case "ledger":
			if rec.Ledger != nil {
				st.Ledger = append(st.Ledger, *rec.Ledger)
			}
		case "plan":
			if p := rec.Plan; p != nil {
				if i, ok := planAt[p.ID]; ok {
					st.Plans[i] = *p
				} else {
					planAt[p.ID] = len(st.Plans)
					st.Plans = append(st.Plans, *p)
				}
			}
		case "dataset":
			if d := rec.Dataset; d != nil {
				if i, ok := datasetAt[d.Name]; ok {
					st.Datasets[i].DatasetRecord = *d
				} else {
					datasetAt[d.Name] = len(st.Datasets)
					st.Datasets = append(st.Datasets, Dataset{DatasetRecord: *d})
				}
			}
		case "rate":
			if rec.Rate != nil {
				st.Rate = *rec.Rate
			}
		default:
			// "epoch" included: only the first line may be a header.
			return fmt.Errorf("persist: journal line %d: unknown record type %q", lineNo, rec.T)
		}
	}
	return nil
}

func (s *FileStore) readDataset(rec DatasetRecord) (*relation.Table, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, rec.File))
	if err != nil {
		// The journal record is only written after the rows landed, so a
		// missing side file is real corruption, not a crash artifact.
		return nil, fmt.Errorf("persist: rows of %q: %w", rec.Name, err)
	}
	t, err := relation.DecodeCSV(rec.Name, data)
	if err != nil {
		return nil, fmt.Errorf("persist: rows of %q: %w", rec.Name, err)
	}
	return t, nil
}
