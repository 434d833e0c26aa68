package guestos

import "heteroos/internal/memsim"

// PlacementConfig is the set of knobs that distinguishes the paper's
// incremental mechanisms (Table 5) plus the baselines. The named presets
// live in internal/policy; this struct is pure data so the OS does not
// depend on the policy catalog.
type PlacementConfig struct {
	// Name is the mechanism name for reporting.
	Name string
	// FastKinds marks the page kinds that prefer FastMem. Heap-OD sets
	// only KindAnon; Heap-IO-Slab-OD adds KindPageCache, KindNetBuf and
	// KindSlab; SlowMem-only sets none.
	FastKinds [NumKinds]bool
	// Random ignores FastKinds and places each allocation on a uniformly
	// random tier (the heterogeneity-unaware strawman of Figure 6).
	Random bool
	// NUMAPreferred models Linux's "preferred node" NUMA policy with the
	// fake-NUMA patch: every allocation tries FastMem first regardless
	// of kind, with no demand awareness and no active reclaim.
	NUMAPreferred bool
	// HeteroLRU enables the HeteroOS-LRU contention resolution:
	// per-tier watermarks, eager demotion of inactive pages out of
	// FastMem, immediate eviction of released I/O pages, and
	// demand-based (miss-ratio) prioritisation across subsystems.
	HeteroLRU bool
}

// WantsFast reports whether kind prefers FastMem under this config.
func (c *PlacementConfig) WantsFast(kind PageKind) bool {
	if c.NUMAPreferred {
		return true
	}
	return c.FastKinds[kind]
}

// AllocStats tracks, per page kind, how many allocations wanted FastMem
// and how many had to settle for SlowMem. The miss ratio drives both the
// demand-based prioritisation (Section 3.2) and Figure 10.
type AllocStats struct {
	Requests [NumKinds]uint64 // allocations that preferred FastMem
	Misses   [NumKinds]uint64 // ... that were served from SlowMem
	Total    [NumKinds]uint64 // all allocations of the kind
}

// Record notes one allocation outcome.
func (s *AllocStats) Record(kind PageKind, wantedFast bool, got memsim.Tier) {
	s.Total[kind]++
	if wantedFast {
		s.Requests[kind]++
		if got != memsim.FastMem {
			s.Misses[kind]++
		}
	}
}

// MissRatio reports the FastMem allocation miss ratio for kind, or 0 if
// the kind made no FastMem requests.
func (s *AllocStats) MissRatio(kind PageKind) float64 {
	if s.Requests[kind] == 0 {
		return 0
	}
	return float64(s.Misses[kind]) / float64(s.Requests[kind])
}

// OverallMissRatio reports the miss ratio across every kind.
func (s *AllocStats) OverallMissRatio() float64 {
	var req, miss uint64
	for k := range s.Requests {
		req += s.Requests[k]
		miss += s.Misses[k]
	}
	if req == 0 {
		return 0
	}
	return float64(miss) / float64(req)
}

// MaxMissKind reports the kind with the highest miss ratio in the
// current window, used by demand-based prioritisation.
func (s *AllocStats) MaxMissKind() (PageKind, float64) {
	best, bestRatio := KindFree, -1.0
	for _, k := range AllocatableKinds {
		if r := s.MissRatio(k); r > bestRatio && s.Requests[k] > 0 {
			best, bestRatio = k, r
		}
	}
	if bestRatio < 0 {
		return KindFree, 0
	}
	return best, bestRatio
}

// Reset clears the window (the OS resets stats every placement interval,
// default 100 ms).
func (s *AllocStats) Reset() { *s = AllocStats{} }
