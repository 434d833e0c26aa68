// Package obs is the simulator's observability subsystem: a typed event
// tracer backed by a fixed-capacity ring buffer with pluggable sinks,
// and a registry of named counters, gauges, and log-scaled histograms
// that every layer (guestos, vmm, memsim, core) registers into once at
// boot.
//
// The package is designed around two hard guarantees:
//
//   - Zero cost when off. Instrumented code guards every probe with a
//     nil check on its attached handle; the default configuration never
//     constructs one, so the epoch hot path keeps its 0 allocs/op and
//     figure output stays byte-identical.
//   - Zero allocation when on. Emitting an event writes into a
//     preallocated ring slot (or returns at once when no sink is
//     attached, since a handle builds its tracer only for a sink), and
//     counter/gauge/histogram updates touch plain preregistered fields.
//     Allocation happens only at boot (registration) and at flush time
//     inside a sink.
//
// obs deliberately imports only sim and metrics so that memsim,
// guestos, vmm, and core can all import it without cycles; events carry
// the memory tier as a plain uint8 rather than a memsim.Tier for the
// same reason.
package obs

import "heteroos/internal/sim"

// Type classifies an event. The taxonomy mirrors the decision points
// the paper's evaluation cares about (Figures 8-13): page movement,
// balloon churn, scan passes, reclaim pressure, cache eviction,
// placement misses, and cross-VM rebalancing.
type Type uint8

const (
	// EvMigration is one page moving between tiers, whether guest-
	// executed (coordinated) or VMM-executed (transparent).
	EvMigration Type = iota
	// EvBalloon is a balloon inflate (guest gives frames back) or
	// deflate (guest populates frames); N is the page count.
	EvBalloon
	// EvScanPass is one hotness-scan pass over guest pages; N is the
	// number of pages scanned and Aux the number found referenced.
	EvScanPass
	// EvReclaim is one guest reclaim pass; N is the number of pages
	// freed and Aux the number of LRU rotations performed.
	EvReclaim
	// EvCacheEvict is one page-cache (or clean slab-backed I/O) page
	// eviction.
	EvCacheEvict
	// EvAllocMiss is a FastMem allocation request that had to spill to
	// SlowMem because placement found no fast frame.
	EvAllocMiss
	// EvDRFRebalance is one DRF-share enforcement action: the
	// dominant-share victim VM was ballooned down; N is the number of
	// pages actually released and Aux the victim VM id.
	EvDRFRebalance
	// EvVMBoot is a VM arriving mid-run (fleet lifecycle). Emitted on
	// the system scope; Aux is the booted VM id and N its boot-populated
	// page count.
	EvVMBoot
	// EvVMShutdown is a VM departing: its balloon unwound, its P2M
	// cleared, and every machine frame returned to the VMM pool. Emitted
	// on the system scope; Aux is the departed VM id and N the number of
	// frames released.
	EvVMShutdown
	// EvFaultInject marks a fault window opening (DirStart) or
	// closing (DirClear); the Start/Clear pair delimits the window. Aux
	// carries the fault code (Fault* constants).
	EvFaultInject
	// EvBalloonRefused is a populate request the balloon back-end did not
	// honour in full: the guest asked for Aux pages of Tier and is short
	// N. The typed guestos error carries the same numbers.
	EvBalloonRefused
	// EvMigrationStall is one migration pass skipped because the
	// migration engine is stalled; Aux counts consecutive stalled passes
	// (the retry/backoff position).
	EvMigrationStall
	// EvVMMigrateOut is a VM departing a host via cross-host live
	// migration: captured into a VMImage and torn down locally. Emitted
	// on the system scope; Aux is the migrating VM id and N the number
	// of machine frames released on the source host.
	EvVMMigrateOut
	// EvVMMigrateIn is a VM arriving on a host via cross-host live
	// migration: its image re-materialized onto local frames. Emitted on
	// the system scope; Aux is the VM id and N the number of machine
	// frames adopted on the destination host.
	EvVMMigrateIn
	numTypes
)

// Fault codes carried in EvFaultInject's Aux field.
const (
	// FaultThrottleShift is a mid-run SlowMem throttle-factor change.
	FaultThrottleShift uint64 = 1
	// FaultBalloonRefusal is a window in which the VMM refuses balloon
	// populate requests for the target VM.
	FaultBalloonRefusal uint64 = 2
	// FaultMigrationStall is a window in which the target VM's migration
	// engine stalls (passes skipped under bounded retry/backoff).
	FaultMigrationStall uint64 = 3
	// FaultSurge is a workload phase surge: the target VM's workload
	// runs at a demand multiple for the window.
	FaultSurge uint64 = 4
)

// FaultName returns the stable wire name of a fault code.
func FaultName(code uint64) string {
	switch code {
	case FaultThrottleShift:
		return "throttle-shift"
	case FaultBalloonRefusal:
		return "balloon-refusal"
	case FaultMigrationStall:
		return "migration-stall"
	case FaultSurge:
		return "surge"
	default:
		return "unknown"
	}
}

// String returns the stable wire name of the event type, used verbatim
// by the JSONL and Chrome-trace sinks.
func (t Type) String() string {
	switch t {
	case EvMigration:
		return "migration"
	case EvBalloon:
		return "balloon"
	case EvScanPass:
		return "scan-pass"
	case EvReclaim:
		return "reclaim"
	case EvCacheEvict:
		return "cache-evict"
	case EvAllocMiss:
		return "alloc-miss"
	case EvDRFRebalance:
		return "drf-rebalance"
	case EvVMBoot:
		return "vm-boot"
	case EvVMShutdown:
		return "vm-shutdown"
	case EvFaultInject:
		return "fault-inject"
	case EvBalloonRefused:
		return "balloon-refused"
	case EvMigrationStall:
		return "migration-stall"
	case EvVMMigrateOut:
		return "vm-migrate-out"
	case EvVMMigrateIn:
		return "vm-migrate-in"
	default:
		return "unknown"
	}
}

// Dir qualifies an event with its direction or variant.
type Dir uint8

const (
	// DirNone marks events with no direction (alloc misses, cache
	// evictions).
	DirNone Dir = iota
	// DirPromote is a guest-executed slow-to-fast migration.
	DirPromote
	// DirDemote is a guest-executed fast-to-slow migration.
	DirDemote
	// DirVMMPromote is a VMM-executed (transparent) promotion.
	DirVMMPromote
	// DirVMMDemote is a VMM-executed (transparent) demotion.
	DirVMMDemote
	// DirInflate is a balloon inflate: the guest released frames.
	DirInflate
	// DirDeflate is a balloon deflate: the guest populated frames.
	DirDeflate
	// DirCacheOnly marks a reclaim pass restricted to clean cache pages.
	DirCacheOnly
	// DirFull marks an unrestricted reclaim pass or full scan pass.
	DirFull
	// DirTracked marks a scan pass over the guest's tracking list only.
	DirTracked
	// DirStart marks a fault window opening.
	DirStart
	// DirClear marks a fault window closing.
	DirClear
	numDirs
)

// String returns the stable wire name of the direction.
func (d Dir) String() string {
	switch d {
	case DirPromote:
		return "promote"
	case DirDemote:
		return "demote"
	case DirVMMPromote:
		return "vmm-promote"
	case DirVMMDemote:
		return "vmm-demote"
	case DirInflate:
		return "inflate"
	case DirDeflate:
		return "deflate"
	case DirCacheOnly:
		return "cache-only"
	case DirFull:
		return "full"
	case DirTracked:
		return "tracked"
	case DirStart:
		return "start"
	case DirClear:
		return "clear"
	default:
		return ""
	}
}

// Tier values carried by events. obs cannot import memsim (memsim
// imports obs), so the tier travels as a uint8 with the same ordinal
// values as memsim.Tier plus a "no tier" sentinel.
const (
	// TierFast mirrors memsim.FastMem.
	TierFast uint8 = 0
	// TierSlow mirrors memsim.SlowMem.
	TierSlow uint8 = 1
	// TierNone marks events with no single associated tier.
	TierNone uint8 = 255
)

// TierName returns the wire name for an event tier byte.
func TierName(t uint8) string {
	switch t {
	case TierFast:
		return "fast"
	case TierSlow:
		return "slow"
	default:
		return "-"
	}
}

// Event is one structured trace record. The struct is flat and
// fixed-size so a ring of them is a single allocation; the meaning of
// N, Aux, and Tier depends on Type (see the Type constants).
type Event struct {
	// Time is the emitting VM's simulated clock at emission.
	Time sim.Duration
	// VM identifies the emitting VM (0 for system-wide events such as
	// DRF rebalances).
	VM int32
	// Type classifies the event.
	Type Type
	// Dir qualifies the direction/variant.
	Dir Dir
	// Tier is the destination tier for migrations, the affected tier
	// otherwise, or TierNone.
	Tier uint8
	// PFN is the first page-frame number the event concerns (0 when
	// the event is not about a specific page).
	PFN uint64
	// N is the event's magnitude in pages (1 for single-page events).
	N uint64
	// Aux carries a type-specific secondary quantity (see Type docs).
	Aux uint64
	// Cost is the simulated time charged for the action, in
	// nanoseconds (0 when the charge is accounted elsewhere).
	Cost float64
}
