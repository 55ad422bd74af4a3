package bitset

import (
	"math/rand"
	"testing"
)

func TestNewEmpty(t *testing.T) {
	s := New(130)
	if s.Len() != 130 {
		t.Fatalf("Len = %d, want 130", s.Len())
	}
	if s.Count() != 0 {
		t.Fatalf("Count = %d, want 0", s.Count())
	}
	for i := 0; i < 130; i++ {
		if s.Has(i) {
			t.Fatalf("bit %d set in empty set", i)
		}
	}
}

func TestNewFull(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 200} {
		s := NewFull(n)
		if s.Count() != n {
			t.Errorf("NewFull(%d).Count() = %d", n, s.Count())
		}
	}
}

func TestSetClearHas(t *testing.T) {
	s := New(100)
	s.Set(0)
	s.Set(63)
	s.Set(64)
	s.Set(99)
	for _, i := range []int{0, 63, 64, 99} {
		if !s.Has(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if s.Count() != 4 {
		t.Fatalf("Count = %d, want 4", s.Count())
	}
	s.Clear(63)
	if s.Has(63) || s.Count() != 3 {
		t.Fatalf("Clear(63) failed: count=%d", s.Count())
	}
}

func TestEqual(t *testing.T) {
	a := New(10)
	b := New(10)
	if !a.Equal(b) {
		t.Fatal("empty sets should be equal")
	}
	a.Set(3)
	if a.Equal(b) {
		t.Fatal("sets differ, Equal = true")
	}
	b.Set(3)
	if !a.Equal(b) {
		t.Fatal("identical sets, Equal = false")
	}
	if a.Equal(New(11)) {
		t.Fatal("different lengths should not be equal")
	}
}

func TestIndicesAndForEachAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New(300)
	for i := 0; i < 80; i++ {
		s.Set(rng.Intn(300))
	}
	var viaForEach []int
	s.ForEach(func(i int) bool {
		viaForEach = append(viaForEach, i)
		return true
	})
	idx := s.Indices()
	if len(idx) != len(viaForEach) {
		t.Fatalf("len mismatch %d vs %d", len(idx), len(viaForEach))
	}
	for i := range idx {
		if idx[i] != viaForEach[i] {
			t.Fatalf("mismatch at %d: %d vs %d", i, idx[i], viaForEach[i])
		}
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := NewFull(100)
	n := 0
	s.ForEach(func(i int) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("ForEach visited %d bits, want 5", n)
	}
}

func TestString(t *testing.T) {
	s := New(10)
	s.Set(2)
	s.Set(7)
	if got := s.String(); got != "{2, 7}" {
		t.Fatalf("String = %q", got)
	}
}
