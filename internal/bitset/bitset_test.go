package bitset

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestPFNSetNextMatchesSortedMembers checks Next and Has against a
// sorted member list on a span with a three-word top level. Hand-picked
// sparse sets leave whole l0, l1 and l2 words empty between members, so
// every summary level's search path runs; a random add/remove stream
// biased toward word boundaries follows.
func TestPFNSetNextMatchesSortedMembers(t *testing.T) {
	const span = 600_000 // 9375 l0 words, 147 l1 words, 3 l2 words
	// Probe around every l1 and l2 word boundary and a few l0 ones.
	probes := []uint64{0, 1, 62, 63, 64, 65, span - 1, span, span + 64}
	for k := uint64(4096); k < span; k += 4096 {
		probes = append(probes, k-1, k, k+1)
	}
	check := func(name string, s *Set, members map[uint64]bool) {
		t.Helper()
		want := make([]uint64, 0, len(members))
		for m := range members {
			want = append(want, m)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		var got []uint64
		for m, ok := s.Next(0); ok && len(got) <= len(want); m, ok = s.Next(m + 1) {
			got = append(got, m)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: walk %v, members %v", name, got, want)
		}
		for _, p := range probes {
			i := sort.Search(len(want), func(i int) bool { return want[i] >= p })
			m, ok := s.Next(p)
			if wantOK := i < len(want); ok != wantOK || ok && m != want[i] {
				t.Fatalf("%s: Next(%d) = %d/%v, members %v", name, p, m, ok, want)
			}
			if s.Has(p) != members[p] {
				t.Fatalf("%s: Has(%d) = %v, members %v", name, p, s.Has(p), want)
			}
		}
		for _, m := range want {
			if !s.Has(m) {
				t.Fatalf("%s: Has(%d) = false for a member", name, m)
			}
		}
		if err := s.Check(span); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, set := range [][]uint64{
		{}, {0}, {span - 1}, {63, 64}, {4095, 4096},
		{258_100, 262_200},   // l1 word 63 to 64 across the l2 boundary
		{5, 530_000},         // l2 word 1 empty
		{100, 9000, 599_999}, // one member per l2 word
	} {
		s := New(span)
		members := map[uint64]bool{}
		for _, m := range set {
			s.Add(m)
			members[m] = true
		}
		check(fmt.Sprint(set), &s, members)
		s.Clear()
		check(fmt.Sprint(set, " cleared"), &s, map[uint64]bool{})
	}

	// Toggle one slot, or add or remove several slots of one word at
	// once, as the heat index's grouped moves do.
	rng := rand.New(rand.NewSource(3))
	s := New(span)
	members := map[uint64]bool{}
	for step := 0; step < 3000; step++ {
		p := probes[rng.Intn(len(probes))]
		if rng.Intn(4) == 0 {
			p = uint64(rng.Intn(span))
		}
		if p >= span {
			continue
		}
		w := int(p >> 6)
		m := uint64(1) << (p & 63)
		if rng.Intn(3) == 0 {
			m |= rng.Uint64() & rng.Uint64() // span is whole words
		}
		if members[p] {
			s.RemoveWord(w, m)
			for b := 0; b < 64; b++ {
				if m>>b&1 != 0 {
					delete(members, uint64(w)<<6+uint64(b))
				}
			}
		} else {
			s.AddWord(w, m)
			for b := 0; b < 64; b++ {
				if m>>b&1 != 0 {
					members[uint64(w)<<6+uint64(b)] = true
				}
			}
		}
		if step%50 == 0 {
			check(fmt.Sprintf("step %d", step), &s, members)
		}
	}
}

// TestPFNSetCheckCatchesCorruption: Check must notice a summary bit that
// disagrees with the level below and a member beyond the span. Has is
// probed on the clean set, at members and at non-members in other words.
func TestPFNSetCheckCatchesCorruption(t *testing.T) {
	const span = 5000
	for name, corrupt := range map[string]func(s *Set){
		"stale l1 bit":   func(s *Set) { s.l1[0] |= 1 << 5 },
		"missing l1 bit": func(s *Set) { s.l0[9] |= 1 },
		"stale l2 bit":   func(s *Set) { s.l2[0] |= 1 << 1 },
		"beyond span":    func(s *Set) { s.l0[len(s.l0)-1] |= 1 << 63 },
	} {
		s := New(span)
		s.Add(100)
		s.Add(200)
		if err := s.Check(span); err != nil {
			t.Fatalf("%s: clean set rejected: %v", name, err)
		}
		if !s.Has(100) || !s.Has(200) || s.Has(576) || s.Has(5119) {
			t.Fatalf("%s: Has disagrees with members {100, 200}", name)
		}
		corrupt(&s)
		if s.Check(span) == nil {
			t.Errorf("%s not detected", name)
		}
	}
}
