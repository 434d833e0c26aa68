package guestos

import (
	"fmt"
)

// lruList is an intrusive doubly-linked list threaded through the page
// store via its lruPrev/lruNext link columns.
type lruList struct {
	head, tail PFN
	count      uint64
}

func newLRUList() lruList { return lruList{head: NilPFN, tail: NilPFN} }

// PageLRU is the split LRU of one node: an active list of recently-used
// pages and an inactive list of reclaim candidates (Section 3.3:
// "Linux uses an approximate split LRU that maintains an active list of
// hot or recently used pages, and an inactive list with cold pages").
type PageLRU struct {
	store    *PageStore
	active   lruList
	inactive lruList
	memo     lapMemo
}

// lapMemo remembers that a reclaim walk over this LRU ended in an
// all-protected lap: every inactive page was reclaim-protected under the
// key (epoch, guard) in each mode whose bit is set. Such a lap frees
// nothing and leaves every page's protection as it found it, so until a
// page that is not protected under the key joins the inactive list (or
// an inactive page's scan heat drops below the protection threshold)
// the next pass of that mode at the same key would walk the same lap to
// the same verdict. The memo is a pure cache of that fact: it is never
// checkpointed, and clearing it at any time changes no result.
type lapMemo struct {
	epoch uint32
	guard uint8
	modes uint8 // memoFull | memoCacheOnly
}

const (
	memoFull      uint8 = 1 << iota // a full pass's lap
	memoCacheOnly                   // a cache-only pass's lap
)

// memoMode is the memo bit of a reclaim pass of the given mode.
func memoMode(cacheOnly bool) uint8 {
	if cacheOnly {
		return memoCacheOnly
	}
	return memoFull
}

// reclaimProtected reports whether reclaim gives pfn a second chance
// whatever its referenced bit: it was used within guard epochs of epoch
// (the recency guard, which applies from epoch 2), the tracker holds it
// decisively hot, or it is anonymous in a cache-only pass. A page
// protected in a full pass is protected in a cache-only pass too.
func reclaimProtected(st *PageStore, pfn PFN, epoch, guard uint32, cacheOnly bool) bool {
	return st.LastUse(pfn)+guard >= epoch && epoch >= 2 ||
		st.ScanHeat(pfn) >= 6 ||
		cacheOnly && st.Kind(pfn) == KindAnon
}

// memoHolds reports whether the memo claims every inactive page is
// protected for a pass of this mode at (epoch, guard).
func (l *PageLRU) memoHolds(epoch, guard uint32, cacheOnly bool) bool {
	m := l.memo
	return m.modes&memoMode(cacheOnly) != 0 && m.epoch == epoch && uint32(m.guard) == guard
}

// setMemo records an all-protected lap of a pass of this mode at
// (epoch, guard). A full pass's lap implies the cache-only one, whose
// protection is a superset. A memo under another key is replaced.
func (l *PageLRU) setMemo(epoch, guard uint32, cacheOnly bool) {
	modes := memoCacheOnly
	if !cacheOnly {
		modes |= memoFull
	}
	if l.memo.epoch == epoch && uint32(l.memo.guard) == guard {
		modes |= l.memo.modes
	}
	l.memo = lapMemo{epoch: epoch, guard: uint8(guard), modes: modes}
}

// recheckMemo drops each memo claim that inactive page pfn breaks: it
// joined the inactive list, or lost protection while on it.
func (l *PageLRU) recheckMemo(pfn PFN) {
	m := &l.memo
	if m.modes == 0 || reclaimProtected(l.store, pfn, m.epoch, uint32(m.guard), false) {
		return
	}
	m.modes &^= memoFull
	if m.modes != 0 && !reclaimProtected(l.store, pfn, m.epoch, uint32(m.guard), true) {
		m.modes = 0
	}
}

// checkMemo verifies the memo's claim page by page when it was made in
// epoch, the only epoch in which a pass can act on it.
func (l *PageLRU) checkMemo(epoch uint32) error {
	m := l.memo
	if m.modes == 0 || m.epoch != epoch {
		return nil
	}
	for _, cacheOnly := range []bool{false, true} {
		if m.modes&memoMode(cacheOnly) == 0 {
			continue
		}
		for pfn := l.inactive.head; pfn != NilPFN; pfn = l.store.LRUNext(pfn) {
			if !reclaimProtected(l.store, pfn, m.epoch, uint32(m.guard), cacheOnly) {
				return fmt.Errorf("lru: lap memo (epoch %d, guard %d, cacheOnly %v) holds but inactive page %d is unprotected",
					m.epoch, m.guard, cacheOnly, pfn)
			}
		}
	}
	return nil
}

// NewPageLRU builds an empty LRU over store.
func NewPageLRU(store *PageStore) *PageLRU {
	return &PageLRU{store: store, active: newLRUList(), inactive: newLRUList()}
}

func (l *PageLRU) list(active bool) *lruList {
	if active {
		return &l.active
	}
	return &l.inactive
}

func (l *PageLRU) pushHead(lst *lruList, pfn PFN) {
	s := l.store
	s.setLRUPrev(pfn, NilPFN)
	s.setLRUNext(pfn, lst.head)
	if lst.head != NilPFN {
		s.setLRUPrev(lst.head, pfn)
	}
	lst.head = pfn
	if lst.tail == NilPFN {
		lst.tail = pfn
	}
	lst.count++
}

func (l *PageLRU) unlink(lst *lruList, pfn PFN) {
	s := l.store
	prev, next := s.LRUPrev(pfn), s.LRUNext(pfn)
	if prev != NilPFN {
		s.setLRUNext(prev, next)
	} else {
		lst.head = next
	}
	if next != NilPFN {
		s.setLRUPrev(next, prev)
	} else {
		lst.tail = prev
	}
	s.setLRUPrev(pfn, NilPFN)
	s.setLRUNext(pfn, NilPFN)
	lst.count--
}

// Insert adds a newly allocated page to the inactive list. New pages
// must earn activation through reuse.
func (l *PageLRU) Insert(pfn PFN) {
	if l.store.Has(pfn, FlagOnLRU) {
		panic(fmt.Sprintf("lru: page %d inserted twice", pfn))
	}
	l.store.Set(pfn, FlagOnLRU)
	l.store.Clear(pfn, FlagActive)
	l.pushHead(&l.inactive, pfn)
	l.recheckMemo(pfn)
}

// Remove takes a page off the LRU entirely (page being freed or
// migrated away from this node).
func (l *PageLRU) Remove(pfn PFN) {
	if !l.store.Has(pfn, FlagOnLRU) {
		panic(fmt.Sprintf("lru: removing page %d not on LRU", pfn))
	}
	l.unlink(l.list(l.store.Has(pfn, FlagActive)), pfn)
	l.store.Clear(pfn, FlagOnLRU|FlagActive)
}

// MarkAccessed implements mark_page_accessed semantics: the first touch
// sets the referenced bit; a second touch while on the inactive list
// promotes the page to the active list.
func (l *PageLRU) MarkAccessed(pfn PFN) {
	s := l.store
	if !s.Has(pfn, FlagOnLRU) {
		return
	}
	if s.Has(pfn, FlagActive) {
		s.Set(pfn, FlagAccessed)
		return
	}
	if s.Has(pfn, FlagAccessed) {
		// Second reference on the inactive list.
		l.activate(pfn)
		return
	}
	s.Set(pfn, FlagAccessed)
}

// activate moves an inactive page to the active list head.
func (l *PageLRU) activate(pfn PFN) {
	l.unlink(&l.inactive, pfn)
	l.store.Set(pfn, FlagActive)
	l.pushHead(&l.active, pfn)
}

// Deactivate moves an active page to the inactive list head, clearing
// its referenced bit (shrink_active_list behaviour).
func (l *PageLRU) Deactivate(pfn PFN) {
	s := l.store
	if !s.Has(pfn, FlagOnLRU) || !s.Has(pfn, FlagActive) {
		return
	}
	l.unlink(&l.active, pfn)
	s.Clear(pfn, FlagActive|FlagAccessed)
	l.pushHead(&l.inactive, pfn)
	l.recheckMemo(pfn)
}

// BalanceInto demotes up to max pages from the active tail while the
// active list outnumbers the inactive list, appending the demoted pages
// to demoted (typically buf[:0] of a reusable slice, so steady-state
// epoch maintenance allocates nothing). It is called under reclaim
// pressure only (like shrink_active_list): balancing without pressure
// would strip hot pages of their protection. HeteroOS-LRU uses the
// returned set to demote eagerly ("actively monitors the active to an
// inactive state change ... and immediately evicts them from FastMem").
func (l *PageLRU) BalanceInto(demoted []PFN, max int) []PFN {
	for len(demoted) < max && l.active.count > l.inactive.count && l.active.tail != NilPFN {
		pfn := l.active.tail
		l.Deactivate(pfn)
		demoted = append(demoted, pfn)
	}
	return demoted
}

// TailInactive returns the coldest inactive page, or NilPFN.
func (l *PageLRU) TailInactive() PFN { return l.inactive.tail }

// rotateRun gives the run of second-chance pages at the inactive tail
// their rotation in one splice. Starting at the tail it walks towards
// the head while each page is referenced or protected, clearing the
// referenced bit, and stops after min(max, count) pages; the walked
// segment then moves to the head in its own order. That is exactly the
// list the same number of single tail-to-head rotations leave behind.
// protected must depend neither on the referenced bit nor on list
// position.
//
// A lap made only of protected pages would keep rotating until max ran
// out. Every whole further lap leaves the order unchanged, so only the
// final (max-n) mod n rotations are performed, as one more walk and
// splice. Returns the number of single rotations the run stands for,
// and whether it was such an all-protected lap (a lap of pages some of
// which were only referenced is not, even when it uses up max).
func (l *PageLRU) rotateRun(max uint64, protected func(PFN) bool) (rotations uint64, lap bool) {
	s := l.store
	lst := &l.inactive
	if lst.count == 0 {
		return 0, false
	}
	limit := lst.count
	if max < limit {
		limit = max
	}
	var n uint64
	allProtected := true
	p := lst.tail
	for n < limit {
		prot := protected(p)
		if !prot && !bitGet(s.accessed, p) {
			break
		}
		allProtected = allProtected && prot
		bitClear(s.accessed, p)
		p = s.LRUPrev(p)
		n++
	}
	if n < lst.count {
		l.spliceTailAfter(p)
		return n, false
	}
	// A full lap: the order is back where it started and every
	// referenced bit is clear.
	if !allProtected {
		// The pages that were only referenced now end the run.
		r, _ := l.rotateRun(max-n, protected)
		return n + r, false
	}
	l.rotateBy(max - n)
	return max, true
}

// replayLap applies what an all-protected lap of max rotations does to
// the inactive list, whose pages all lie in [lo, hi): every referenced
// bit is cleared, a word at a time, and the list rotates by max mod its
// length.
func (l *PageLRU) replayLap(max uint64, lo, hi PFN) {
	s := l.store
	for w := lo >> 6; w <= (hi-1)>>6; w++ {
		mask := ^uint64(0)
		if w == lo>>6 {
			mask <<= lo & 63
		}
		if w == (hi-1)>>6 {
			mask &= ^uint64(0) >> (63 - (hi-1)&63)
		}
		s.accessed[w] &^= s.onLRU[w] &^ s.active[w] & mask
	}
	l.rotateBy(max)
}

// rotateBy performs k single tail-to-head rotations of the inactive
// list of all-protected pages as one splice, walking to the new tail
// from whichever end of the list is nearer.
func (l *PageLRU) rotateBy(k uint64) {
	s := l.store
	lst := &l.inactive
	k %= lst.count
	var p PFN
	if k <= lst.count/2 {
		p = lst.tail
		for ; k > 0; k-- {
			p = s.LRUPrev(p)
		}
	} else {
		p = lst.head
		for k = lst.count - 1 - k; k > 0; k-- {
			p = s.LRUNext(p)
		}
	}
	l.spliceTailAfter(p)
}

// spliceTailAfter moves the inactive pages behind p to the head, in
// order, making p the new tail. A NilPFN p (the segment is the whole
// list) or the tail itself (an empty segment) leaves the list as is.
func (l *PageLRU) spliceTailAfter(p PFN) {
	s := l.store
	lst := &l.inactive
	if p == NilPFN || p == lst.tail {
		return
	}
	first := s.LRUNext(p)
	s.setLRUNext(lst.tail, lst.head)
	s.setLRUPrev(lst.head, lst.tail)
	s.setLRUPrev(first, NilPFN)
	s.setLRUNext(p, NilPFN)
	lst.head, lst.tail = first, p
}

// ActiveCount reports the active list length.
func (l *PageLRU) ActiveCount() uint64 { return l.active.count }

// InactiveCount reports the inactive list length.
func (l *PageLRU) InactiveCount() uint64 { return l.inactive.count }

// Count reports total resident pages on the LRU.
func (l *PageLRU) Count() uint64 { return l.active.count + l.inactive.count }

// CheckInvariants walks both lists verifying link integrity, flag
// consistency, and counts.
func (l *PageLRU) CheckInvariants() error {
	s := l.store
	for _, c := range []struct {
		lst    *lruList
		active bool
		name   string
	}{{&l.active, true, "active"}, {&l.inactive, false, "inactive"}} {
		var n uint64
		prev := NilPFN
		for pfn := c.lst.head; pfn != NilPFN; pfn = s.LRUNext(pfn) {
			if !s.Has(pfn, FlagOnLRU) {
				return fmt.Errorf("lru: %s page %d missing FlagOnLRU", c.name, pfn)
			}
			if s.Has(pfn, FlagActive) != c.active {
				return fmt.Errorf("lru: page %d active flag mismatch on %s list", pfn, c.name)
			}
			if s.LRUPrev(pfn) != prev {
				return fmt.Errorf("lru: page %d prev link broken on %s list", pfn, c.name)
			}
			prev = pfn
			n++
			if n > s.Len() {
				return fmt.Errorf("lru: %s list cycle", c.name)
			}
		}
		if prev != c.lst.tail {
			return fmt.Errorf("lru: %s tail mismatch", c.name)
		}
		if n != c.lst.count {
			return fmt.Errorf("lru: %s count %d != walked %d", c.name, c.lst.count, n)
		}
	}
	return nil
}
