package bitset

import (
	"math/rand"
	"testing"
)

// set and has address single bits for the tests; the FD engine only ever
// starts from a full set and clears.
func set(s *Set, i int) { s.words[i/wordBits] |= 1 << uint(i%wordBits) }

func has(s *Set, i int) bool { return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0 }

func TestNewEmpty(t *testing.T) {
	s := New(130)
	if s.n != 130 || len(s.words) != 3 {
		t.Fatalf("New(130) has %d bits in %d words, want 130 in 3", s.n, len(s.words))
	}
	if s.Count() != 0 {
		t.Fatalf("Count = %d, want 0", s.Count())
	}
	for i := 0; i < 130; i++ {
		if has(s, i) {
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
	for _, i := range []int{0, 63, 64, 99} {
		set(s, i)
	}
	if s.Count() != 4 {
		t.Fatalf("Count = %d, want 4", s.Count())
	}
	s.Clear(63)
	if has(s, 63) || !has(s, 64) || s.Count() != 3 {
		t.Fatalf("Clear(63) failed: count=%d", s.Count())
	}
	s.Clear(63)
	if s.Count() != 3 {
		t.Fatalf("clearing a clear bit changed Count to %d", s.Count())
	}
}

// Clearing every bit of a full set one at a time, in random order, lowers
// Count by exactly one each time and touches no other bit.
func TestClearFullSetRandomOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 64, 65, 300} {
		s := NewFull(n)
		for k, i := range rng.Perm(n) {
			if !has(s, i) {
				t.Fatalf("n=%d: bit %d cleared before its turn", n, i)
			}
			s.Clear(i)
			if got := s.Count(); got != n-k-1 {
				t.Fatalf("n=%d: Count = %d after %d clears", n, got, k+1)
			}
		}
	}
}
