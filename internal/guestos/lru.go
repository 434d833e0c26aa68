package guestos

import (
	"fmt"
)

// lruList is an intrusive doubly-linked list threaded through the page
// store via the lruPrev/lruNext parallel arrays.
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

	activations, deactivations uint64
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
	s.lruPrev[pfn] = NilPFN
	s.lruNext[pfn] = lst.head
	if lst.head != NilPFN {
		s.lruPrev[lst.head] = pfn
	}
	lst.head = pfn
	if lst.tail == NilPFN {
		lst.tail = pfn
	}
	lst.count++
}

func (l *PageLRU) unlink(lst *lruList, pfn PFN) {
	s := l.store
	prev, next := s.lruPrev[pfn], s.lruNext[pfn]
	if prev != NilPFN {
		s.lruNext[prev] = next
	} else {
		lst.head = next
	}
	if next != NilPFN {
		s.lruPrev[next] = prev
	} else {
		lst.tail = prev
	}
	s.lruPrev[pfn], s.lruNext[pfn] = NilPFN, NilPFN
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

// Contains reports whether pfn is on this LRU.
func (l *PageLRU) Contains(pfn PFN) bool {
	return l.store.Has(pfn, FlagOnLRU)
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
	l.activations++
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
	l.deactivations++
}

// Balance demotes up to max pages from the active tail while the active
// list outnumbers the inactive list, returning the demoted pages. It is
// called under reclaim pressure only (like shrink_active_list): balancing
// without pressure would strip hot pages of their protection. HeteroOS-
// LRU uses the returned set to demote eagerly ("actively monitors the
// active to an inactive state change ... and immediately evicts them
// from FastMem").
func (l *PageLRU) Balance(max int) []PFN {
	return l.BalanceInto(nil, max)
}

// BalanceInto is Balance appending into a caller-supplied buffer
// (typically buf[:0] of a reusable slice), so steady-state epoch
// maintenance allocates nothing.
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
// splice. Returns the number of single rotations the run stands for.
func (l *PageLRU) rotateRun(max uint64, protected func(PFN) bool) uint64 {
	s := l.store
	lst := &l.inactive
	if lst.count == 0 {
		return 0
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
		p = s.lruPrev[p]
		n++
	}
	if n < lst.count {
		l.spliceTailAfter(p)
		return n
	}
	// A full lap: the order is back where it started and every
	// referenced bit is clear.
	if !allProtected {
		// The pages that were only referenced now end the run.
		return n + l.rotateRun(max-n, protected)
	}
	p = lst.tail
	for shift := (max - n) % n; shift > 0; shift-- {
		p = s.lruPrev[p]
	}
	l.spliceTailAfter(p)
	return max
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
	first := s.lruNext[p]
	s.lruNext[lst.tail] = lst.head
	s.lruPrev[lst.head] = lst.tail
	s.lruPrev[first] = NilPFN
	s.lruNext[p] = NilPFN
	lst.head, lst.tail = first, p
}

// ActiveCount reports the active list length.
func (l *PageLRU) ActiveCount() uint64 { return l.active.count }

// InactiveCount reports the inactive list length.
func (l *PageLRU) InactiveCount() uint64 { return l.inactive.count }

// Count reports total resident pages on the LRU.
func (l *PageLRU) Count() uint64 { return l.active.count + l.inactive.count }

// Stats reports activation/deactivation counters.
func (l *PageLRU) Stats() (activations, deactivations uint64) {
	return l.activations, l.deactivations
}

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
		for pfn := c.lst.head; pfn != NilPFN; pfn = s.lruNext[pfn] {
			if !s.Has(pfn, FlagOnLRU) {
				return fmt.Errorf("lru: %s page %d missing FlagOnLRU", c.name, pfn)
			}
			if s.Has(pfn, FlagActive) != c.active {
				return fmt.Errorf("lru: page %d active flag mismatch on %s list", pfn, c.name)
			}
			if s.lruPrev[pfn] != prev {
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
