package persist

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCheckpointDecode mutates a real checkpoint: it cuts it at a fuzzed
// length and XORs fuzzed bytes in at a fuzzed offset. A mutated checkpoint
// must fail to decode; an unchanged one decodes to the original ledger
// total, bit for bit.
func FuzzCheckpointDecode(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	s.setCheckpointEvery(len(fuzzLedger) + 3)
	apply(f, s, checkpointOps(len(fuzzLedger)+3))
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	orig, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if err != nil {
		f.Fatal(err)
	}
	_, _, st, err := decodeCheckpoint(orig)
	if err != nil {
		f.Fatal(err)
	}
	total := ledgerTotal(st.Ledger)

	f.Add(uint32(math.MaxUint32), uint32(0), []byte(nil))
	f.Add(uint32(math.MaxUint32), uint32(len(orig)/2), []byte{1})
	f.Add(uint32(len(orig)-1), uint32(0), []byte(nil))
	f.Add(uint32(math.MaxUint32), uint32(len(checkpointMagic)), []byte{1})
	f.Add(uint32(math.MaxUint32), uint32(len(orig)-40), []byte{0xff})
	f.Fuzz(func(t *testing.T, cut, off uint32, patch []byte) {
		data := bytes.Clone(orig[:min(int(cut), len(orig))])
		for i, b := range patch {
			if j := int(off%uint32(len(orig))) + i; j < len(data) {
				data[j] ^= b
			}
		}
		_, _, got, err := decodeCheckpoint(data)
		if !bytes.Equal(data, orig) {
			if err == nil {
				t.Fatalf("mutated checkpoint decoded: ledger total %v (original %v)", ledgerTotal(got.Ledger), total)
			}
			return
		}
		if err != nil {
			t.Fatalf("unchanged checkpoint: %v", err)
		}
		if g := ledgerTotal(got.Ledger); math.Float64bits(g) != math.Float64bits(total) {
			t.Fatalf("ledger total %v, want %v", g, total)
		}
	})
}

func ledgerTotal(ledger []LedgerRecord) float64 {
	total := 0.0
	for _, e := range ledger {
		total += e.Amount
	}
	return total
}
