package guestos

import "fmt"

// swapSpace models the swap device at page granularity: which virtual
// pages currently live in swap. Contents are not simulated; a swapped
// page's Tag is retained so swap-in can restore it.
type swapSpace struct {
	slots map[VPN]uint64 // vpn → page tag
}

func newSwapSpace() *swapSpace {
	return &swapSpace{slots: make(map[VPN]uint64)}
}

func (s *swapSpace) add(vpn VPN, tag uint64) {
	if _, ok := s.slots[vpn]; ok {
		panic(fmt.Sprintf("swap: vpn %d already swapped", vpn))
	}
	s.slots[vpn] = tag
}

func (s *swapSpace) take(vpn VPN) uint64 {
	tag, ok := s.slots[vpn]
	if !ok {
		panic(fmt.Sprintf("swap: vpn %d not in swap", vpn))
	}
	delete(s.slots, vpn)
	return tag
}

func (s *swapSpace) free(vpn VPN) {
	delete(s.slots, vpn)
}
