// Package bitset provides a dense, fixed-capacity bitset used by the FD
// engine for correct-record sets.
//
// The zero value of Set is not usable; construct with New.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a dense bitset over the half-open interval [0, Len()).
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

// Len returns the capacity (number of addressable bits).
func (s *Set) Len() int { return s.n }

// Set sets bit i to one.
func (s *Set) Set(i int) {
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear sets bit i to zero.
func (s *Set) Clear(i int) {
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Has reports whether bit i is one.
func (s *Set) Has(i int) bool {
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of one bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// Equal reports whether s and o have identical lengths and contents.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Indices returns the positions of all one bits in increasing order.
func (s *Set) Indices() []int {
	out := make([]int, 0, s.Count())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// ForEach calls fn for every one bit in increasing order. Iteration stops
// if fn returns false.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// String renders the set as a compact {i, j, ...} list, for debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", i)
		first = false
		return true
	})
	b.WriteByte('}')
	return b.String()
}
