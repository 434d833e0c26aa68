// Package policy catalogs the memory-management mechanisms the paper
// evaluates: the two baselines (SlowMem-only, FastMem-only), the
// heterogeneity-unaware strawmen (Random, NUMA-preferred), the
// incremental HeteroOS mechanisms of Table 5 (Heap-OD, Heap-IO-Slab-OD,
// HeteroOS-LRU, HeteroOS-coordinated), and the state-of-the-art
// VMM-exclusive (HeteroVisor) comparison.
//
// A Mode is pure configuration; the behaviour lives in internal/guestos
// (placement, LRU) and internal/vmm (tracking, migration, sharing).
package policy

import (
	"errors"
	"fmt"

	"heteroos/internal/guestos"
)

// ErrUnknownMode is returned (wrapped) by ByName for names outside the
// mode catalog; match it with errors.Is.
var ErrUnknownMode = errors.New("policy: unknown mode")

// MigrationMode selects who (if anyone) migrates pages at runtime.
type MigrationMode int

const (
	// MigrateNone: placement only.
	MigrateNone MigrationMode = iota
	// MigrateVMMExclusive: the VMM tracks the whole guest and migrates
	// backing frames transparently (HeteroVisor).
	MigrateVMMExclusive
	// MigrateCoordinated: the guest exports a tracking list, the VMM
	// scans it, and the guest performs validated migrations.
	MigrateCoordinated
)

// String names the migration mode.
func (m MigrationMode) String() string {
	switch m {
	case MigrateNone:
		return "none"
	case MigrateVMMExclusive:
		return "VMM-exclusive"
	case MigrateCoordinated:
		return "coordinated"
	default:
		return fmt.Sprintf("MigrationMode(%d)", int(m))
	}
}

// Mode is a complete, named mechanism configuration.
type Mode struct {
	Name        string
	Description string
	// GuestAware: expose per-type NUMA nodes to the guest.
	GuestAware bool
	// Placement is the guest-side policy knob set.
	Placement guestos.PlacementConfig
	// Migration selects the runtime migration machinery.
	Migration MigrationMode
	// AdaptiveInterval enables Equation 1's LLC-miss-driven scan
	// interval (the "architectural hints" of HeteroOS-coordinated).
	AdaptiveInterval bool
	// NoFastMem forces the VM to run entirely from SlowMem (baseline 1).
	NoFastMem bool
	// AllFastMem gives the VM unlimited FastMem (baseline 2).
	AllFastMem bool
	// WriteAwareMigration enables Section 4.3's extension: the tracker
	// also scans the write (PAGE_RW) bit and the migrator prioritises
	// store-heavy pages into FastMem, because NVM-class SlowMem punishes
	// writes 2-4x more than reads.
	WriteAwareMigration bool
	// BareMetal models Section 4.3's non-virtualized deployment: "most
	// of the placement and management is done at the OS ... it can be
	// easily applied to non-virtualized systems by just moving the page
	// hotness-tracking and DRF into the OS." The same mechanisms run,
	// minus virtualization overheads (balloon hypercalls, nested-paging
	// scan cost).
	BareMetal bool
}

func fastKinds(kinds ...guestos.PageKind) [guestos.NumKinds]bool {
	var out [guestos.NumKinds]bool
	for _, k := range kinds {
		out[k] = true
	}
	return out
}

// SlowMemOnly is the naive baseline: every page lives in SlowMem.
func SlowMemOnly() Mode {
	return Mode{
		Name:        "SlowMem-only",
		Description: "naive approach always using slow memory",
		GuestAware:  true,
		NoFastMem:   true,
		Placement:   guestos.PlacementConfig{Name: "SlowMem-only"},
	}
}

// FastMemOnly is the ideal baseline: unlimited FastMem.
func FastMemOnly() Mode {
	return Mode{
		Name:        "FastMem-only",
		Description: "ideal approach with unlimited fast memory",
		GuestAware:  true,
		AllFastMem:  true,
		Placement: guestos.PlacementConfig{
			Name: "FastMem-only",
			FastKinds: fastKinds(guestos.KindAnon, guestos.KindPageCache,
				guestos.KindNetBuf, guestos.KindSlab, guestos.KindPageTable, guestos.KindDMA),
		},
	}
}

// Random places each allocation on a uniformly random tier, with the
// FastMem share reserved at boot (Figure 6's heterogeneity-unaware
// strawman).
func Random() Mode {
	return Mode{
		Name:        "Random",
		Description: "random placement without heterogeneity awareness",
		GuestAware:  true,
		Placement:   guestos.PlacementConfig{Name: "Random", Random: true},
	}
}

// NUMAPreferred is Linux's preferred-node policy over fake-NUMA nodes:
// everything tries FastMem first, no demand awareness, no reclaim
// (Figure 9's NUMA-preferred comparison).
func NUMAPreferred() Mode {
	return Mode{
		Name:        "NUMA-preferred",
		Description: "existing Linux preferred-node NUMA policy",
		GuestAware:  true,
		Placement:   guestos.PlacementConfig{Name: "NUMA-preferred", NUMAPreferred: true},
	}
}

// HeapOD prioritises only the heap into FastMem with on-demand
// allocation (Table 5 row 1).
func HeapOD() Mode {
	return Mode{
		Name:        "Heap-OD",
		Description: "on-demand heap allocation",
		GuestAware:  true,
		Placement: guestos.PlacementConfig{
			Name:      "Heap-OD",
			FastKinds: fastKinds(guestos.KindAnon),
		},
	}
}

// HeapIOSlabOD adds I/O page-cache and slab allocations to the FastMem
// set (Table 5 row 2).
func HeapIOSlabOD() Mode {
	return Mode{
		Name:        "Heap-IO-Slab-OD",
		Description: "Heap-OD + IO page cache allocation + slab allocation",
		GuestAware:  true,
		Placement: guestos.PlacementConfig{
			Name: "Heap-IO-Slab-OD",
			FastKinds: fastKinds(guestos.KindAnon, guestos.KindPageCache,
				guestos.KindNetBuf, guestos.KindSlab),
		},
	}
}

// HeteroOSLRU adds the HeteroOS-LRU contention resolution (Table 5
// row 3).
func HeteroOSLRU() Mode {
	m := HeapIOSlabOD()
	m.Name = "HeteroOS-LRU"
	m.Description = "Heap-IO-Slab-OD + HeteroOS-LRU"
	m.Placement.Name = "HeteroOS-LRU"
	m.Placement.HeteroLRU = true
	return m
}

// VMMExclusive is the HeteroVisor baseline: heterogeneity hidden from
// the guest; the VMM tracks hotness over the whole VM and migrates.
func VMMExclusive() Mode {
	return Mode{
		Name:        "VMM-exclusive",
		Description: "guest-transparent hotness tracking and migration in the VMM (HeteroVisor)",
		GuestAware:  false,
		Placement:   guestos.PlacementConfig{Name: "VMM-exclusive"},
		Migration:   MigrateVMMExclusive,
	}
}

// HeteroOSCoordinated is the full system (Table 5 row 4): HeteroOS-LRU
// plus OS-guided VMM hotness tracking with architectural hints.
func HeteroOSCoordinated() Mode {
	m := HeteroOSLRU()
	m.Name = "HeteroOS-coordinated"
	m.Description = "HeteroOS-LRU + OS-guided hotness-tracking + architecture hints"
	m.Placement.Name = "HeteroOS-coordinated"
	m.Migration = MigrateCoordinated
	m.AdaptiveInterval = true
	return m
}

// HeteroOSCoordinatedNVM is the Section 4.3 write-aware extension on
// top of the full coordinated system, for NVM-class SlowMem whose
// stores cost several times its loads.
func HeteroOSCoordinatedNVM() Mode {
	m := HeteroOSCoordinated()
	m.Name = "HeteroOS-coordinated-NVM"
	m.Description = "HeteroOS-coordinated + write-bit tracking for asymmetric (NVM) SlowMem"
	m.WriteAwareMigration = true
	return m
}

// HeteroOSBareMetal runs the full HeteroOS stack on a non-virtualized
// host (Section 4.3): identical placement, tracking and migration, with
// the hypervisor boundary's costs removed.
func HeteroOSBareMetal() Mode {
	m := HeteroOSCoordinated()
	m.Name = "HeteroOS-baremetal"
	m.Description = "HeteroOS on a non-virtualized host: tracking and sharing moved into the OS"
	m.BareMetal = true
	return m
}

// All returns every mode in presentation order.
func All() []Mode {
	return []Mode{
		SlowMemOnly(), FastMemOnly(), Random(), NUMAPreferred(),
		HeapOD(), HeapIOSlabOD(), HeteroOSLRU(),
		VMMExclusive(), HeteroOSCoordinated(), HeteroOSCoordinatedNVM(),
		HeteroOSBareMetal(),
	}
}

// ByName looks a mode up by its Table 5 / baseline name. Unknown names
// return an error wrapping ErrUnknownMode, mirroring workload.ByName.
func ByName(name string) (Mode, error) {
	for _, m := range All() {
		if m.Name == name {
			return m, nil
		}
	}
	return Mode{}, fmt.Errorf("%w %q", ErrUnknownMode, name)
}

// Table5 returns the paper's incremental-mechanism rows in order.
func Table5() []Mode {
	return []Mode{HeapOD(), HeapIOSlabOD(), HeteroOSLRU(), HeteroOSCoordinated()}
}
