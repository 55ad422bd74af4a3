// Package bitset provides a dense, fixed-capacity bitset used by the FD
// engine for correct-record sets.
//
// The zero value of Set is not usable; construct with New.
package bitset

import "math/bits"

const wordBits = 64

// Set is a dense bitset over the half-open interval [0, n).
type Set struct {
	words []uint64
	n     int
}

// New returns a set of n bits, all zero.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative length")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// NewFull returns a set of n bits, all one.
func NewFull(n int) *Set {
	s := New(n)
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
	return s
}

// trim clears the unused high bits of the last word.
func (s *Set) trim() {
	if rem := s.n % wordBits; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (uint64(1) << uint(rem)) - 1
	}
}

// Clear sets bit i to zero.
func (s *Set) Clear(i int) {
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Count returns the number of one bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}
