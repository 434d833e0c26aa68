package memsim

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"heteroos/internal/sim"
	"heteroos/internal/snapshot"
)

func TestDeviceCatalogTable1(t *testing.T) {
	// The catalog must reproduce Table 1's ordering and headline numbers.
	if len(DeviceCatalog) != 3 {
		t.Fatalf("catalog has %d entries, want 3", len(DeviceCatalog))
	}
	nvm, err := DeviceByClass(ClassNVM)
	if err != nil {
		t.Fatalf("NVM missing from catalog: %v", err)
	}
	if nvm.LoadLatencyNs() != 150 {
		t.Fatalf("NVM load latency %v, want 150", nvm.LoadLatencyNs())
	}
	if nvm.BandwidthGBs() != 2 {
		t.Fatalf("NVM bandwidth %v, want 2", nvm.BandwidthGBs())
	}
	dram, _ := DeviceByClass(ClassDRAM)
	stacked, _ := DeviceByClass(ClassStacked3D)
	if !(stacked.BandwidthGBs() > dram.BandwidthGBs() && dram.BandwidthGBs() > nvm.BandwidthGBs()) {
		t.Fatal("bandwidth ordering violates Table 1")
	}
	if !(stacked.LoadLatencyNs() < dram.LoadLatencyNs() && dram.LoadLatencyNs() < nvm.LoadLatencyNs()) {
		t.Fatal("latency ordering violates Table 1")
	}
	if _, err := DeviceByClass(DeviceClass(99)); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("bogus class lookup = %v, want ErrUnknownDevice", err)
	}
}

func TestDeviceClassString(t *testing.T) {
	if ClassNVM.String() != "NVM (PCM)" || ClassDRAM.String() != "DRAM" {
		t.Fatal("device class names wrong")
	}
	if DeviceClass(42).String() == "" {
		t.Fatal("unknown class should still render")
	}
}

func TestThrottleTable3Measured(t *testing.T) {
	// Table 3's measured points must be reproduced exactly.
	cases := []struct {
		th  Throttle
		lat float64
		bw  float64
	}{
		{Throttle{1, 1}, 60, 24},
		{Throttle{2, 2}, 128, 12.4},
		{Throttle{5, 5}, 354, 5.1},
		{Throttle{5, 12}, 960, 1.38},
	}
	for _, c := range cases {
		if got := c.th.LatencyNs(); got != c.lat {
			t.Errorf("%v latency = %v, want %v", c.th, got, c.lat)
		}
		if got := c.th.BandwidthGBs(); got != c.bw {
			t.Errorf("%v bandwidth = %v, want %v", c.th, got, c.bw)
		}
	}
}

func TestThrottleDerivedPoints(t *testing.T) {
	// The sweep uses L:5,B:7 and L:5,B:9 which are not in Table 3; they
	// must interpolate sensibly between the measured neighbours.
	b7 := Throttle{5, 7}.BandwidthGBs()
	b9 := Throttle{5, 9}.BandwidthGBs()
	if !(b7 > b9) {
		t.Fatalf("B:7 (%v) must exceed B:9 (%v)", b7, b9)
	}
	if !(b7 < 5.1 && b9 > 1.38) {
		t.Fatalf("derived points outside measured bracket: b7=%v b9=%v", b7, b9)
	}
	if lat := (Throttle{5, 9}).LatencyNs(); lat < 300 || lat > 400 {
		t.Fatalf("L:5 derived latency %v outside plausible band", lat)
	}
}

func TestThrottleStoreLatency(t *testing.T) {
	// Deep throttles emulate NVM-class asymmetric writes.
	if got := (Throttle{5, 9}).StoreLatencyNs(); got <= (Throttle{5, 9}).LatencyNs() {
		t.Fatalf("L:5 store latency %v not above load", got)
	}
	if got := (Throttle{1, 1}).StoreLatencyNs(); got != 60 {
		t.Fatalf("DRAM store latency %v, want 60", got)
	}
}

func TestThrottleString(t *testing.T) {
	if s := (Throttle{5, 12}).String(); s != "L:5,B:12" {
		t.Fatalf("String = %q", s)
	}
}

func TestRemoteNUMASpec(t *testing.T) {
	// Remote NUMA must be strictly milder than any SlowMem sweep point:
	// that is the basis of Observation 2.
	if RemoteNUMA.LoadLatencyNs >= (Throttle{2, 2}).LatencyNs() {
		t.Fatal("remote NUMA latency should be below mildest throttle")
	}
	if RemoteNUMA.BandwidthGBs <= (Throttle{2, 2}).BandwidthGBs() {
		t.Fatal("remote NUMA bandwidth should exceed mildest throttle")
	}
}

func TestTierBasics(t *testing.T) {
	if FastMem.String() != "FastMem" || SlowMem.String() != "SlowMem" {
		t.Fatal("tier names wrong")
	}
	if Tier(9).String() == "" {
		t.Fatal("unknown tier should render")
	}
}

func newTestMachine(fast, slow uint64) *Machine {
	return NewMachine(fast, slow, FastTierSpec(), SlowTierSpec())
}

// withReturnedFrames allocates n frames of each tier and frees them
// again, so each tier's stack holds n returned frames.
func withReturnedFrames(t *testing.T, m *Machine, n uint64) *Machine {
	t.Helper()
	for tier := Tier(0); tier < NumTiers; tier++ {
		fs, err := m.Alloc(tier, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		m.Free(fs, 1)
	}
	return m
}

// TestMachineFrameOrderMatchesOneStack: a machine hands out frames in
// the order of one free stack per tier pre-filled with every frame,
// highest at the bottom, and its checkpoint lists that stack, which a
// restored machine holds and keeps popping in the same order.
func TestMachineFrameOrderMatchesOneStack(t *testing.T) {
	m := newTestMachine(64, 256)
	var stack [NumTiers][]uint32
	for tier := Tier(0); tier < NumTiers; tier++ {
		for i := m.size[tier]; i > 0; i-- {
			stack[tier] = append(stack[tier], uint32(uint64(m.base[tier])+i-1))
		}
	}
	rng := sim.NewRNG(3)
	var held [NumTiers][]MFN
	step := func(m *Machine, round int) {
		for i := 0; i < 400; i++ {
			tier := Tier(rng.Intn(int(NumTiers)))
			if n := uint64(rng.Intn(6)); rng.Bool(0.55) {
				fs, err := m.Alloc(tier, n, 1)
				if uint64(len(stack[tier])) < n {
					if err == nil {
						t.Fatalf("round %d: allocated %d frames of %d free", round, n, len(stack[tier]))
					}
					continue
				}
				for _, f := range fs {
					top := len(stack[tier]) - 1
					if want := MFN(stack[tier][top]); f != want {
						t.Fatalf("round %d: allocated MFN %d, one stack pops %d", round, f, want)
					}
					stack[tier] = stack[tier][:top]
				}
				held[tier] = append(held[tier], fs...)
			} else if k := min(int(n), len(held[tier])); k > 0 {
				fs := held[tier][len(held[tier])-k:]
				m.Free(fs, 1)
				for _, f := range fs {
					stack[tier] = append(stack[tier], uint32(f))
				}
				held[tier] = held[tier][:len(held[tier])-k]
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	step(m, 0)
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.State("machine", m.SnapshotState); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := snapshot.Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored := newTestMachine(64, 256)
	if err := r.State("machine", restored.SnapshotState); err != nil {
		t.Fatal(err)
	}
	for tier := Tier(0); tier < NumTiers; tier++ {
		if !slices.Equal(restored.free[tier], stack[tier]) {
			t.Fatalf("restored %v stack %v, one stack holds %v", tier, restored.free[tier], stack[tier])
		}
	}
	if err := restored.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	step(restored, 1)
}

func TestMachineAllocFree(t *testing.T) {
	m := newTestMachine(16, 64)
	fs, err := m.Alloc(FastMem, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 10 {
		t.Fatalf("got %d frames", len(fs))
	}
	for _, f := range fs {
		if m.TierOf(f) != FastMem {
			t.Fatalf("frame %d in wrong tier", f)
		}
		if m.owner[f] != 1 {
			t.Fatalf("frame %d owner %d", f, m.owner[f])
		}
	}
	if m.FreeFrames(FastMem) != 6 || m.AllocatedFrames(FastMem) != 10 {
		t.Fatalf("accounting wrong: free=%d alloc=%d", m.FreeFrames(FastMem), m.AllocatedFrames(FastMem))
	}
	m.Free(fs, 1)
	if m.FreeFrames(FastMem) != 16 {
		t.Fatalf("free count %d after release", m.FreeFrames(FastMem))
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMachineExhaustion(t *testing.T) {
	m := newTestMachine(4, 4)
	if _, err := m.Alloc(FastMem, 5, 1); !errors.Is(err, ErrNoFrames) {
		t.Fatalf("want ErrNoFrames, got %v", err)
	}
	// All-or-nothing: the failed alloc must not consume frames.
	if m.FreeFrames(FastMem) != 4 {
		t.Fatalf("failed alloc leaked frames: %d free", m.FreeFrames(FastMem))
	}
	if _, err := m.Alloc(FastMem, 4, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AllocOne(FastMem, 2); !errors.Is(err, ErrNoFrames) {
		t.Fatal("expected exhaustion")
	}
}

func TestMachineTierBoundary(t *testing.T) {
	m := newTestMachine(8, 8)
	if m.TierOf(7) != FastMem || m.TierOf(8) != SlowMem {
		t.Fatal("tier boundary wrong")
	}
}

func TestMachineDoubleFreePanics(t *testing.T) {
	m := newTestMachine(4, 4)
	fs, _ := m.Alloc(FastMem, 1, 1)
	m.Free(fs, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	m.Free(fs, 1)
}

func TestMachineWrongOwnerFreePanics(t *testing.T) {
	m := newTestMachine(4, 4)
	fs, _ := m.Alloc(FastMem, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-owner free did not panic")
		}
	}()
	m.Free(fs, 2)
}

func TestMachineRejectsOwnerZero(t *testing.T) {
	m := newTestMachine(4, 4)
	if _, err := m.Alloc(FastMem, 1, OwnerFree); err == nil {
		t.Fatal("owner 0 allocation must fail")
	}
}

func TestMachineInvariantProperty(t *testing.T) {
	// Property: any interleaving of allocs and frees preserves the frame
	// accounting invariants.
	f := func(seed uint64, ops []uint8) bool {
		m := newTestMachine(32, 32)
		held := map[Owner][]MFN{}
		owner := Owner(1)
		for _, op := range ops {
			switch op % 3 {
			case 0, 1: // alloc 1-4 frames on a tier
				tier := Tier(op % 2)
				n := uint64(op%4) + 1
				fs, err := m.Alloc(tier, n, owner)
				if err == nil {
					held[owner] = append(held[owner], fs...)
				}
			case 2: // free everything held by this owner
				if fs := held[owner]; len(fs) > 0 {
					m.Free(fs, owner)
					held[owner] = nil
				}
			}
		}
		return m.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMachineCheckInvariantsCatchesFaults(t *testing.T) {
	cases := []struct {
		name, want string
		corrupt    func(m *Machine)
	}{
		{"duplicate", "on free list twice", func(m *Machine) {
			// Same length and count, one frame listed twice.
			m.free[SlowMem][5] = m.free[SlowMem][2]
		}},
		{"owned", "has owner", func(m *Machine) { m.owner[m.free[FastMem][3]] = 7 }},
		{"wrong tier", "wrong tier list", func(m *Machine) {
			m.free[FastMem][0], m.free[SlowMem][0] = m.free[SlowMem][0], m.free[FastMem][0]
		}},
		{"count", "!= size", func(m *Machine) { m.freeCnt[FastMem]-- }},
		{"stack count", "!= count", func(m *Machine) { m.free[FastMem] = m.free[FastMem][1:] }},
		{"never-used stacked", "never-used", func(m *Machine) { m.free[SlowMem][1] = uint32(m.base[SlowMem]) + 60 }},
		{"never-used owned", "never-used frames above 8 have owner 7", func(m *Machine) { m.owner[15] = 7 }},
	}
	for _, tc := range cases {
		m := withReturnedFrames(t, newTestMachine(16, 64), 8)
		tc.corrupt(m)
		err := m.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckInvariants = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestMachineOwnedByRange(t *testing.T) {
	m := newTestMachine(16, 64)
	for _, o := range []Owner{3, 5, 5, 9} {
		if _, err := m.Alloc(SlowMem, 2, o); err != nil {
			t.Fatal(err)
		}
	}
	got := m.OwnedByRange(4, 9)
	if want := []uint64{0, 4, 0, 0, 0, 2}; !slices.Equal(got, want) {
		t.Fatalf("OwnedByRange(4, 9) = %v, want %v", got, want)
	}
	if n := m.OwnedByRange(3, 3)[0]; n != 2 {
		t.Fatalf("OwnedByRange(3, 3) = [%d], want [2]", n)
	}
	if n := m.OwnedByRange(OwnerFree, OwnerFree)[0]; n != 16+64-8 {
		t.Fatalf("free frames = %d, want %d", n, 16+64-8)
	}
}

func TestLLCMPKIScale(t *testing.T) {
	llc := DefaultLLC()
	// Same cache as reference: scale 1 regardless of WSS.
	if s := llc.MPKIScale(1 << 30); s != 1 {
		t.Fatalf("reference scale = %v, want 1", s)
	}
	big := EmulatorLLC()
	// Larger cache reduces misses for a cache-exceeding working set.
	s := big.MPKIScale(1 << 30)
	if !(s > 0 && s < 1) {
		t.Fatalf("48MB scale = %v, want in (0,1)", s)
	}
	// Working set inside both caches: only compulsory misses remain; the
	// ratio collapses to 1 (cold/cold).
	if s := big.MPKIScale(8 << 20); s != 1 {
		t.Fatalf("cache-resident scale = %v, want 1", s)
	}
}

func TestLLCMonotoneInWSS(t *testing.T) {
	llc := LLC{SizeBytes: 16 << 20, ColdFraction: 0.15, Theta: 0.3}
	prev := -1.0
	for _, wss := range []int64{1 << 20, 32 << 20, 256 << 20, 4 << 30} {
		f := llc.missFactor(wss)
		if f < prev {
			t.Fatalf("miss factor not monotone at wss=%d: %v < %v", wss, f, prev)
		}
		if f < llc.ColdFraction || f > 1 {
			t.Fatalf("miss factor %v outside [cold,1]", f)
		}
		prev = f
	}
	if f := llc.missFactor(0); f != llc.ColdFraction {
		t.Fatalf("zero wss factor = %v", f)
	}
}

func TestEngineChargeLatencyVsBandwidth(t *testing.T) {
	m := newTestMachine(1024, 1024)
	e := NewAnalytic(m)

	// Pointer chase: low MLP, line-sized traffic: latency bound.
	chase := EpochCharge{
		Instr: 1_000_000, Threads: 1, MLP: 1, BytesPerMiss: 64,
		StoreVisibleFrac: 0.3,
	}
	chase.Traffic[SlowMem] = TierTraffic{LoadMisses: 100_000}
	c1 := e.Charge(chase)
	if c1.BWBound[SlowMem] {
		t.Fatal("pointer chase should be latency bound")
	}

	// Streaming: high MLP, amplified traffic: bandwidth bound.
	stream := chase
	stream.MLP = 16
	stream.BytesPerMiss = 256
	c2 := e.Charge(stream)
	if !c2.BWBound[SlowMem] {
		t.Fatal("streaming should be bandwidth bound")
	}
	if c2.MemTime[SlowMem] >= c1.MemTime[SlowMem] {
		t.Fatal("MLP should have reduced stall time")
	}
}

func TestEngineFastVsSlow(t *testing.T) {
	m := newTestMachine(1024, 1024)
	e := NewAnalytic(m)
	ch := EpochCharge{Instr: 1_000_000, Threads: 4, MLP: 4, BytesPerMiss: 64, StoreVisibleFrac: 0.3}
	ch.Traffic[FastMem] = TierTraffic{LoadMisses: 200_000}
	fast := e.Charge(ch)

	ch2 := ch
	ch2.Traffic[FastMem] = TierTraffic{}
	ch2.Traffic[SlowMem] = TierTraffic{LoadMisses: 200_000}
	slow := e.Charge(ch2)

	if slow.Total <= fast.Total {
		t.Fatalf("slow tier (%v) not slower than fast (%v)", slow.Total, fast.Total)
	}
	// The slowdown must reflect the ~5x latency gap within loose bounds.
	ratio := float64(slow.MemTime[SlowMem]) / float64(fast.MemTime[FastMem])
	if ratio < 2 || ratio > 20 {
		t.Fatalf("tier stall ratio %v outside plausible band", ratio)
	}
}

func TestEngineStoresCostMoreOnSlow(t *testing.T) {
	m := newTestMachine(64, 64)
	e := NewAnalytic(m)
	loads := EpochCharge{Instr: 1000, Threads: 1, MLP: 1, StoreVisibleFrac: 1}
	loads.Traffic[SlowMem] = TierTraffic{LoadMisses: 10_000}
	stores := EpochCharge{Instr: 1000, Threads: 1, MLP: 1, StoreVisibleFrac: 1}
	stores.Traffic[SlowMem] = TierTraffic{StoreMisses: 10_000}
	cl := e.Charge(loads)
	cs := e.Charge(stores)
	if cs.MemTime[SlowMem] <= cl.MemTime[SlowMem] {
		t.Fatal("SlowMem stores should cost more than loads (NVM asymmetry)")
	}
}

func TestEngineDefensiveClamps(t *testing.T) {
	m := newTestMachine(64, 64)
	e := NewAnalytic(m)
	ch := EpochCharge{Instr: 1000, Threads: 0, MLP: 0, BytesPerMiss: 1, StoreVisibleFrac: 2}
	ch.Traffic[FastMem] = TierTraffic{LoadMisses: 10, StoreMisses: 10}
	c := e.Charge(ch)
	if c.Total <= 0 {
		t.Fatal("clamped charge must still be positive")
	}
	if c.BytesOut[FastMem] != 20*MinBytesPerMiss {
		t.Fatalf("BytesPerMiss clamp failed: %d", c.BytesOut[FastMem])
	}
}

func TestEngineThreadsCappedAtCores(t *testing.T) {
	m := newTestMachine(64, 64)
	e := &Engine{machine: m, cpu: CPU{FreqGHz: 1, IPC: 1, Cores: 4}}
	a := EpochCharge{Instr: 4_000_000, Threads: 4}
	b := EpochCharge{Instr: 4_000_000, Threads: 400}
	if e.Charge(a).CPUTime != e.Charge(b).CPUTime {
		t.Fatal("threads beyond core count must not speed up CPU time")
	}
}

func TestEngineOSTimeAdds(t *testing.T) {
	m := newTestMachine(64, 64)
	e := NewAnalytic(m)
	ch := EpochCharge{Instr: 1000, Threads: 1, OSTime: 12345}
	c := e.Charge(ch)
	if c.Total != c.CPUTime+12345 {
		t.Fatalf("OS time not added: total=%v cpu=%v", c.Total, c.CPUTime)
	}
}

func TestEngineAsymmetricStoreVisibility(t *testing.T) {
	// On an NVM-class tier (store latency > load latency) write-back
	// buffering breaks down: the visible store fraction doubles.
	m := newTestMachine(64, 64)
	e := NewAnalytic(m)
	symmetric := EpochCharge{Instr: 1000, Threads: 1, MLP: 1, StoreVisibleFrac: 0.35}
	symmetric.Traffic[FastMem] = TierTraffic{StoreMisses: 1_000_000}
	asymmetric := EpochCharge{Instr: 1000, Threads: 1, MLP: 1, StoreVisibleFrac: 0.35}
	asymmetric.Traffic[SlowMem] = TierTraffic{StoreMisses: 1_000_000}

	cs := e.Charge(symmetric)
	ca := e.Charge(asymmetric)
	fastSpec, slowSpec := m.Spec(FastMem), m.Spec(SlowMem)
	// Fast tier: stores at 0.35 visibility.
	wantFast := 1e6 * fastSpec.StoreLatencyNs * 0.35
	gotFast := float64(cs.MemTime[FastMem]) - 1e6*8/fastSpec.BandwidthGBs
	if diff := gotFast - wantFast; diff > 1 || diff < -1 {
		t.Fatalf("fast store latency component = %v, want %v", gotFast, wantFast)
	}
	// Slow (asymmetric) tier: visibility doubled to 0.7.
	wantSlow := 1e6 * slowSpec.StoreLatencyNs * 0.7
	gotSlow := float64(ca.MemTime[SlowMem]) - 1e6*8/slowSpec.BandwidthGBs
	if diff := gotSlow - wantSlow; diff > 1 || diff < -1 {
		t.Fatalf("slow store latency component = %v, want %v", gotSlow, wantSlow)
	}
}

// TestNewMachineRejectsSpanBeyondMaxFrames: free lists hold MFNs in 32
// bits, so a machine past MaxFrames (a config that skipped validation)
// must panic before allocating, including when the sum wraps.
func TestNewMachineRejectsSpanBeyondMaxFrames(t *testing.T) {
	for _, span := range [][2]uint64{{MaxFrames, 1}, {1, MaxFrames}, {^uint64(0), 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMachine(%d, %d) did not panic", span[0], span[1])
				}
			}()
			NewMachine(span[0], span[1], FastTierSpec(), SlowTierSpec())
		}()
	}
}

// TestRestoreRejectsFreeFrameOutsideTier: a machine section with a
// valid checksum whose free list holds a frame outside its tier must
// fail the restore, naming the section, instead of being narrowed into
// the 32-bit list.
func TestRestoreRejectsFreeFrameOutsideTier(t *testing.T) {
	for name, mfn := range map[string]uint32{"past the machine": 64, "other tier": 40} {
		t.Run(name, func(t *testing.T) {
			src := withReturnedFrames(t, newTestMachine(32, 32), 1)
			src.free[FastMem][0] = mfn
			var buf bytes.Buffer
			w, err := snapshot.NewWriter(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.State("machine", src.SnapshotState); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := snapshot.Open(&buf)
			if err != nil {
				t.Fatal(err)
			}
			err = r.State("machine", newTestMachine(32, 32).SnapshotState)
			if err == nil || !strings.Contains(err.Error(), `section "machine"`) || !strings.Contains(err.Error(), "free list") {
				t.Fatalf("restore error %v, want one naming section \"machine\" and its free list", err)
			}
		})
	}
}
