// Package persist is danced's durable offline state: a pluggable Store
// interface plus a file-backed append-log implementation that journals
// service ledger entries, stored plans, and the versioned sample store, so a
// restarted danced recovers everything it paid for from disk instead of
// re-buying it from the marketplace.
//
// The file layout is a single JSONL journal plus CSV side files:
//
//	<dir>/journal.jsonl       one JSON record per line, typed by "t"
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
// Samples are journaled after merge, in the marketplace seller's canonical
// hash-unit prefix order (internal/marketplace/index.go), so a recovered
// dataset is bit-identical to the bought-and-merged one and remains
// extendable by future SampleDelta purchases.
package persist

import (
	"bufio"
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
// of the last completed append; recovery calls it once per consumer at
// startup (the service layer for ledger and plans, the middleware for the
// sample store).
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
	T       string         `json:"t"` // "ledger", "plan", "dataset", "rate"
	Rate    *float64       `json:"rate,omitempty"`
	Ledger  *LedgerRecord  `json:"ledger,omitempty"`
	Plan    *PlanRecord    `json:"plan,omitempty"`
	Dataset *DatasetRecord `json:"dataset,omitempty"`
}

// FileStore is the file-backed Store described in the package comment.
type FileStore struct {
	dir  string
	sync bool

	mu      sync.Mutex // lockorder: leaf
	journal *os.File   // guarded by mu
	closed  bool       // guarded by mu
}

var _ Store = (*FileStore)(nil)

// Options tune a FileStore.
type Options struct {
	// NoSync skips the per-append fsync. Appends then reach the OS on every
	// call but the disk only at Flush/Close — faster, with a crash window.
	NoSync bool
}

// Open creates (or reopens) a file store rooted at dir. A torn final
// journal line — the signature a crash mid-append leaves, since records
// contain no raw newlines and a partial write persists as a prefix — is
// truncated away first, so the next append starts a fresh, parseable line
// instead of gluing onto the partial record.
func Open(dir string, opts Options) (*FileStore, error) {
	if err := os.MkdirAll(filepath.Join(dir, "datasets"), 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	path := filepath.Join(dir, "journal.jsonl")
	if err := repairTail(path); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return &FileStore{dir: dir, sync: !opts.NoSync, journal: f}, nil
}

// repairTail truncates a journal that does not end in a newline back to its
// last complete line.
func repairTail(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("persist: %w", err)
	}
	if len(data) == 0 || data[len(data)-1] == '\n' {
		return nil
	}
	keep := int64(bytes.LastIndexByte(data, '\n') + 1)
	if err := os.Truncate(path, keep); err != nil {
		return fmt.Errorf("persist: dropping torn journal tail: %w", err)
	}
	return nil
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
	if _, err := s.journal.Write(data); err != nil {
		return fmt.Errorf("persist: journal append: %w", err)
	}
	if s.sync {
		if err := s.journal.Sync(); err != nil {
			return fmt.Errorf("persist: journal sync: %w", err)
		}
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

// Load implements Store. The replay tolerates exactly one torn trailing
// line — an unterminated final fragment, the crash-mid-append case — and
// fails loudly on anything else: every line that ends in a newline was
// written whole, so one that does not decode is corruption.
func (s *FileStore) Load() (*State, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, "journal.jsonl"))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("persist: %w", err)
	}
	st := &State{}
	var (
		planOrder []string
		plans     = map[string]PlanRecord{}
		dsOrder   []string
		dss       = map[string]DatasetRecord{}
	)
	line, lineNo := data, 0
	for len(line) > 0 {
		lineNo++
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
			return nil, fmt.Errorf("persist: journal line %d corrupt: %w", lineNo, err)
		}
		switch rec.T {
		case "ledger":
			if rec.Ledger != nil {
				st.Ledger = append(st.Ledger, *rec.Ledger)
			}
		case "plan":
			if rec.Plan != nil {
				if _, ok := plans[rec.Plan.ID]; !ok {
					planOrder = append(planOrder, rec.Plan.ID)
				}
				plans[rec.Plan.ID] = *rec.Plan
			}
		case "dataset":
			if rec.Dataset != nil {
				if _, ok := dss[rec.Dataset.Name]; !ok {
					dsOrder = append(dsOrder, rec.Dataset.Name)
				}
				dss[rec.Dataset.Name] = *rec.Dataset
			}
		case "rate":
			if rec.Rate != nil {
				st.Rate = *rec.Rate
			}
		default:
			return nil, fmt.Errorf("persist: journal line %d: unknown record type %q", lineNo, rec.T)
		}
	}
	for _, id := range planOrder {
		st.Plans = append(st.Plans, plans[id])
	}
	for _, name := range dsOrder {
		rec := dss[name]
		t, err := s.readDataset(rec)
		if err != nil {
			return nil, err
		}
		st.Datasets = append(st.Datasets, Dataset{DatasetRecord: rec, Table: t})
	}
	return st, nil
}

func (s *FileStore) readDataset(rec DatasetRecord) (*relation.Table, error) {
	f, err := os.Open(filepath.Join(s.dir, rec.File))
	if err != nil {
		// The journal record is only written after the rows landed, so a
		// missing side file is real corruption, not a crash artifact.
		return nil, fmt.Errorf("persist: rows of %q: %w", rec.Name, err)
	}
	defer f.Close()
	t, err := relation.ReadCSV(rec.Name, bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("persist: rows of %q: %w", rec.Name, err)
	}
	return t, nil
}
