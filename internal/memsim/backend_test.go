package memsim

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"heteroos/internal/sim"
)

// backendCharges is a small varied charge stream exercising both tiers,
// store traffic, MLP/thread spread, and OS time.
func backendCharges() []EpochCharge {
	var out []EpochCharge
	for i := 0; i < 16; i++ {
		c := EpochCharge{
			Instr:            uint64(1_000_000 * (i + 1)),
			Threads:          1 + i%8,
			MLP:              1 + float64(i%4),
			BytesPerMiss:     float64(16 * (1 + i%4)),
			StoreVisibleFrac: 0.35,
			OSTime:           sim.Duration(i * 1000),
		}
		c.Traffic[FastMem] = TierTraffic{LoadMisses: uint64(10_000 * i), StoreMisses: uint64(1_000 * i)}
		c.Traffic[SlowMem] = TierTraffic{LoadMisses: uint64(5_000 * (16 - i)), StoreMisses: uint64(500 * i)}
		out = append(out, c)
	}
	return out
}

func TestBackendInterfaceSatisfied(t *testing.T) {
	m := newTestMachine(64, 64)
	var _ Backend = NewAnalytic(m)
	var _ Backend = NewRecorder(NewAnalytic(m), &bytes.Buffer{})
	if NewAnalytic(m).Machine() != m || NewRecorder(NewAnalytic(m), &bytes.Buffer{}).Machine() != m {
		t.Fatal("backends must expose their machine")
	}
}

// The record → replay round-trip must reproduce every recorded cost
// exactly: ints compare equal and floats survive the JSONL encoding
// because Go emits the shortest representation that round-trips.
func TestRecordReplayRoundTripExact(t *testing.T) {
	m := newTestMachine(1024, 1024)
	var buf bytes.Buffer
	rec := NewRecorder(NewAnalytic(m), &buf)
	if got, want := rec.Name(), "record(analytic)"; got != want {
		t.Fatalf("recorder name %q, want %q", got, want)
	}
	charges := backendCharges()
	var want []EpochCost
	for _, ch := range charges {
		want = append(want, rec.Charge(ch))
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if rec.Recorded() != uint64(len(charges)) {
		t.Fatalf("recorded %d epochs, want %d", rec.Recorded(), len(charges))
	}

	tr, err := LoadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rp := NewReplay(tr, m)
	for i, ch := range charges {
		if got := rp.Charge(ch); got != want[i] {
			t.Fatalf("epoch %d: replay %+v != recorded %+v", i, got, want[i])
		}
	}
	if rp.Diverged() != 0 || rp.Overrun() != 0 {
		t.Fatalf("clean replay reported diverged=%d overrun=%d", rp.Diverged(), rp.Overrun())
	}
	if rp.Replayed() != len(charges) {
		t.Fatalf("replayed %d, want %d", rp.Replayed(), len(charges))
	}
}

// Replay degrades into the analytic model rather than returning wrong
// costs: mismatched charges and post-trace charges both fall back.
func TestReplayDivergenceFallsBack(t *testing.T) {
	m := newTestMachine(1024, 1024)
	var buf bytes.Buffer
	rec := NewRecorder(NewAnalytic(m), &buf)
	charges := backendCharges()
	for _, ch := range charges {
		rec.Charge(ch)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := LoadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}

	rp := NewReplay(tr, m)
	a := NewAnalytic(m)
	mutated := charges[0]
	mutated.Instr += 7
	if got, wantC := rp.Charge(mutated), a.Charge(mutated); got != wantC {
		t.Fatalf("diverged epoch not priced analytically: %+v vs %+v", got, wantC)
	}
	if rp.Diverged() != 1 {
		t.Fatalf("diverged = %d, want 1", rp.Diverged())
	}
	for _, ch := range charges[1:] {
		rp.Charge(ch)
	}
	extra := charges[3]
	if got, wantC := rp.Charge(extra), a.Charge(extra); got != wantC {
		t.Fatalf("overrun epoch not priced analytically: %+v vs %+v", got, wantC)
	}
	if rp.Overrun() != 1 {
		t.Fatalf("overrun = %d, want 1", rp.Overrun())
	}
}

func TestLoadTraceRejectsGarbage(t *testing.T) {
	if _, err := LoadTrace(strings.NewReader("not json\n")); !errors.Is(err, ErrTraceDecode) {
		t.Fatalf("garbage trace: %v, want ErrTraceDecode", err)
	}
	if _, err := LoadTrace(strings.NewReader("")); !errors.Is(err, ErrTraceDecode) {
		t.Fatalf("empty trace: %v, want ErrTraceDecode", err)
	}
	if _, err := LoadTraceFile("/nonexistent/trace.jsonl"); err == nil {
		t.Fatal("missing file must error")
	}
}

// Trace.Builder hands each built backend an independent cursor, so one
// loaded trace can drive many jobs.
func TestTraceBuilderIndependentCursors(t *testing.T) {
	m := newTestMachine(1024, 1024)
	var buf bytes.Buffer
	rec := NewRecorder(NewAnalytic(m), &buf)
	charges := backendCharges()
	for _, ch := range charges {
		rec.Charge(ch)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := LoadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	build := tr.Builder()
	b1 := build(m).(*Replay)
	b2 := build(m).(*Replay)
	b1.Charge(charges[0])
	if b2.Replayed() != 0 {
		t.Fatal("cursors are shared across built backends")
	}
	if b2.Charge(charges[0]) != b1.trace.Records[0].Cost {
		t.Fatal("second backend did not replay from the start")
	}
}
