package guestos

import "heteroos/internal/memsim"

// Translate resolves vpn to its mapped frame without faulting.
func (a *AddrSpace) Translate(vpn VPN) (PFN, bool) {
	pfn, st := a.lookup(vpn)
	return pfn, st == ptPresent
}

// ResidentPages sums resident pages across VMAs.
func (a *AddrSpace) ResidentPages() uint64 {
	var n uint64
	for _, v := range a.order {
		n += v.Resident
	}
	return n
}

// ResidentByTier counts resident (non-free) pages per backing tier.
func (o *OS) ResidentByTier() [memsim.NumTiers]uint64 {
	var out [memsim.NumTiers]uint64
	for pfn := PFN(0); pfn < PFN(o.store.Len()); pfn++ {
		mfn := o.store.MFN(pfn)
		if o.store.Kind(pfn) == KindFree || mfn == memsim.NilMFN {
			continue
		}
		out[o.cfg.TierOf(mfn)]++
	}
	return out
}

// Reset returns pfn's metadata to the boot-time default.
func (s *PageStore) Reset(pfn PFN) {
	s.mfn[pfn] = nil32
	s.kind[pfn] = 0
	s.vpn[pfn] = nil32
	s.lruPrev[pfn] = nil32
	s.lruNext[pfn] = nil32
	s.lastUse[pfn] = 0
	s.scanHeat[pfn] = 0
	s.scanWriteHeat[pfn] = 0
	s.tag[pfn] = 0
	s.SetAllFlags(pfn, 0)
	bitClear(s.scanHeatNZ, pfn)
	bitClear(s.scanWriteHeatNZ, pfn)
}
