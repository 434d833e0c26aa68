package guestos

import (
	"errors"
	"testing"

	"heteroos/internal/memsim"
)

// TestBootShortfallTypedError checks that a balloon back-end refusing
// part of the boot reservation surfaces as a typed, inspectable error
// rather than a silently under-reserved guest.
func TestBootShortfallTypedError(t *testing.T) {
	src := newFakeSource(4096, 4096)
	src.denyFast = true
	_, err := New(Config{
		Aware:        true,
		FastMaxPages: 1024, SlowMaxPages: 2048,
		BootFastPages: 256, BootSlowPages: 512,
		Source: src,
		TierOf: src.m.TierOf,
		Seed:   1,
	})
	if err == nil {
		t.Fatal("boot with refused FastMem reservation succeeded")
	}
	var sf *BalloonShortfallError
	if !errors.As(err, &sf) {
		t.Fatalf("error is not a *BalloonShortfallError: %v", err)
	}
	if sf.Tier != memsim.FastMem {
		t.Errorf("shortfall tier = %v, want FastMem", sf.Tier)
	}
	if sf.Got >= sf.Want {
		t.Errorf("shortfall got %d >= want %d", sf.Got, sf.Want)
	}
}

// TestTeardownReturnsEveryFrame checks that Teardown unwinds the whole
// guest: every backed frame released to the source, P2M left empty.
func TestTeardownReturnsEveryFrame(t *testing.T) {
	os, src := testOS(t, heapODPlacement(), 1024, 2048, 256, 512)
	// Touch enough memory to spread pages across both nodes.
	const pages = 600
	vma, err := os.AS.Mmap(pages, KindAnon, NilFile)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		if _, err := os.TouchVPN(vma.Start+VPN(i), 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	allocated := src.m.AllocatedFrames(memsim.FastMem) + src.m.AllocatedFrames(memsim.SlowMem)
	if allocated == 0 {
		t.Fatal("no frames allocated before teardown")
	}
	released := os.Teardown()
	if released != allocated {
		t.Fatalf("Teardown released %d frames, machine had %d allocated", released, allocated)
	}
	if got := src.m.AllocatedFrames(memsim.FastMem) + src.m.AllocatedFrames(memsim.SlowMem); got != 0 {
		t.Fatalf("%d frames still allocated after teardown", got)
	}
	if err := os.P2MEmpty(); err != nil {
		t.Fatalf("P2M not empty after teardown: %v", err)
	}
}
