// Package bitset is the frame-set primitive the guest's buddy allocator
// and the VMM's heat index share: a three-level hierarchical bitmap over
// [0, span) that answers "smallest member at or above p" in a handful of
// word operations.
package bitset

import (
	"fmt"
	"math/bits"
)

// Set is a three-level hierarchical bitmap: l0 has one bit per member
// slot, l1 one bit per non-zero l0 word, l2 one bit per non-zero l1
// word. Next skips empty stretches 4096 or 262144 slots at a time (a
// 64K-slot set has a 16-word l1 and a 1-word l2).
type Set struct {
	l0, l1, l2 []uint64
}

// New returns an empty set over [0, span), its three levels cut from
// one allocation.
func New(span uint64) Set {
	n0 := (span + 63) / 64
	n1 := (n0 + 63) / 64
	w := make([]uint64, n0+n1+(n1+63)/64)
	return Set{l0: w[:n0:n0], l1: w[n0 : n0+n1 : n0+n1], l2: w[n0+n1:]}
}

// Clear removes every member.
func (s *Set) Clear() {
	clear(s.l0)
	clear(s.l1)
	clear(s.l2)
}

// AddWord adds the members of l0 word w set in m, which must be
// non-zero, and marks the word in the summary levels.
func (s *Set) AddWord(w int, m uint64) {
	s.l0[w] |= m
	s.l1[w>>6] |= 1 << (w & 63)
	s.l2[w>>12] |= 1 << ((w >> 6) & 63)
}

// RemoveWord removes the members of l0 word w set in m and clears the
// summary bits of words it empties.
func (s *Set) RemoveWord(w int, m uint64) {
	if s.l0[w] &^= m; s.l0[w] != 0 {
		return
	}
	w1 := w >> 6
	if s.l1[w1] &^= 1 << (w & 63); s.l1[w1] != 0 {
		return
	}
	s.l2[w1>>6] &^= 1 << (w1 & 63)
}

// Add adds member p, which must lie below the span.
func (s *Set) Add(p uint64) { s.AddWord(int(p>>6), 1<<(p&63)) }

// Remove removes member p, which must lie below the span.
func (s *Set) Remove(p uint64) { s.RemoveWord(int(p>>6), 1<<(p&63)) }

// Has reports whether p is a member; p may lie beyond the span.
func (s *Set) Has(p uint64) bool {
	w := p >> 6
	return w < uint64(len(s.l0)) && s.l0[w]>>(p&63)&1 != 0
}

// Next returns the smallest member greater than or equal to p.
func (s *Set) Next(p uint64) (uint64, bool) {
	w0 := p >> 6
	if w0 >= uint64(len(s.l0)) {
		return 0, false
	}
	if m := s.l0[w0] &^ (1<<(p&63) - 1); m != 0 {
		return w0<<6 + uint64(bits.TrailingZeros64(m)), true
	}
	w0++
	w1 := w0 >> 6
	if w1 >= uint64(len(s.l1)) {
		return 0, false
	}
	if m := s.l1[w1] &^ (1<<(w0&63) - 1); m != 0 {
		w0 = w1<<6 + uint64(bits.TrailingZeros64(m))
		return w0<<6 + uint64(bits.TrailingZeros64(s.l0[w0])), true
	}
	w1++
	w2 := w1 >> 6
	if w2 >= uint64(len(s.l2)) {
		return 0, false
	}
	m := s.l2[w2] &^ (1<<(w1&63) - 1)
	for m == 0 {
		if w2++; w2 >= uint64(len(s.l2)) {
			return 0, false
		}
		m = s.l2[w2]
	}
	w1 = w2<<6 + uint64(bits.TrailingZeros64(m))
	w0 = w1<<6 + uint64(bits.TrailingZeros64(s.l1[w1]))
	return w0<<6 + uint64(bits.TrailingZeros64(s.l0[w0])), true
}

// Check verifies that each summary bit is set exactly when the word it
// covers is non-zero, and that no member lies at or beyond span.
func (s *Set) Check(span uint64) error {
	if tail := span & 63; tail != 0 && s.l0[len(s.l0)-1]>>tail != 0 {
		return fmt.Errorf("bitset: member beyond span %d", span)
	}
	for _, lv := range []struct{ lo, hi []uint64 }{{s.l0, s.l1}, {s.l1, s.l2}} {
		for i := range lv.hi {
			var want uint64
			for b := 0; b < 64 && i<<6+b < len(lv.lo); b++ {
				if lv.lo[i<<6+b] != 0 {
					want |= 1 << b
				}
			}
			if lv.hi[i] != want {
				return fmt.Errorf("bitset: summary word %d is %#x, covers %#x", i, lv.hi[i], want)
			}
		}
	}
	return nil
}
