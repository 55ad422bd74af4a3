package persist

import (
	"testing"
)

// benchEntries is the ledger size the persist benchmarks run against: the
// journal the pilot-durable perfbench workload restores holds 10⁴ entries.
const benchEntries = 10_000

// benchJournal writes benchEntries ledger entries into a fresh store at dir
// and returns it open.
func benchJournal(b *testing.B, dir string) Store {
	b.Helper()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchEntries; i++ {
		if err := s.AppendLedger(fuzzLedger[i%len(fuzzLedger)]); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkRestore is a restart over a 10⁴-entry ledger: Open, Load and
// Close, as danced does before it serves.
func BenchmarkRestore(b *testing.B) {
	dir := b.TempDir()
	if err := benchJournal(b, dir).Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Options{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		st, err := s.Load()
		if err != nil {
			b.Fatal(err)
		}
		if len(st.Ledger) != benchEntries {
			b.Fatalf("restored %d ledger entries, want %d", len(st.Ledger), benchEntries)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalAppend appends ledger entries to a store that already
// holds 10⁴ of them, without the per-append fsync (which measures the disk,
// not the store). Every benchEntries appends it starts over from a fresh
// 10⁴-entry store, so the ledger stays between one and two times that size
// however large b.N grows.
func BenchmarkJournalAppend(b *testing.B) {
	var s Store
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%benchEntries == 0 {
			b.StopTimer()
			if s != nil {
				s.Close()
			}
			s = benchJournal(b, b.TempDir())
			b.StartTimer()
		}
		if err := s.AppendLedger(fuzzLedger[i%len(fuzzLedger)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if s != nil {
		s.Close()
	}
}
