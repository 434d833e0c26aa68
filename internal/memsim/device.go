// Package memsim models the memory hardware the paper evaluates on: the
// heterogeneous device catalog (Table 1), the DRAM-throttling emulation
// table (Table 3), machine frames grouped into tiers, a last-level-cache
// miss model, and the access-timing engine that converts cache misses into
// simulated stall time.
//
// The paper emulates FastMem/SlowMem by throttling one DRAM socket's
// bandwidth and latency through PCI thermal registers; this package applies
// the identical (latency ×L, bandwidth ÷B) transform analytically.
package memsim

import (
	"errors"
	"fmt"
)

// PageSize is the architectural page size in bytes. The simulator uses
// 4 KiB pages throughout, matching the paper's x86 testbed.
const PageSize = 4096

// CacheLineSize is the transfer unit between LLC and memory, in bytes.
const CacheLineSize = 64

// MinBytesPerMiss bounds the effective DRAM traffic per LLC miss from
// below: row-buffer hits and write combining reduce device traffic well
// under a full line, but never to zero.
const MinBytesPerMiss = 8

// DeviceClass identifies a memory technology from the paper's Table 1.
type DeviceClass int

const (
	// ClassDRAM is conventional DDR DRAM, the 1x density baseline.
	ClassDRAM DeviceClass = iota
	// ClassStacked3D is on-chip stacked 3D-DRAM (HMC/HBM class).
	ClassStacked3D
	// ClassNVM is byte-addressable non-volatile memory (PCM class).
	ClassNVM
)

// String returns the catalog name of the device class.
func (c DeviceClass) String() string {
	switch c {
	case ClassDRAM:
		return "DRAM"
	case ClassStacked3D:
		return "Stacked-3D"
	case ClassNVM:
		return "NVM (PCM)"
	default:
		return fmt.Sprintf("DeviceClass(%d)", int(c))
	}
}

// DeviceSpec describes one memory technology: the paper's Table 1 row.
// Ranges in the paper are represented by their midpoints, with the range
// bounds retained for documentation output.
type DeviceSpec struct {
	Class DeviceClass
	// DensityFactor is capacity per die area relative to Stacked-3D = 1x.
	DensityMin, DensityMax float64
	// Load/store latencies in nanoseconds.
	LoadLatencyMinNs, LoadLatencyMaxNs   float64
	StoreLatencyMinNs, StoreLatencyMaxNs float64
	// Peak bandwidth in GB/s.
	BandwidthMinGBs, BandwidthMaxGBs float64
}

// DeviceCatalog is the paper's Table 1: heterogeneous memory
// characteristics for stacked 3D-DRAM, DRAM, and NVM (PCM).
var DeviceCatalog = []DeviceSpec{
	{
		Class:      ClassStacked3D,
		DensityMin: 1, DensityMax: 1,
		LoadLatencyMinNs: 30, LoadLatencyMaxNs: 50,
		StoreLatencyMinNs: 30, StoreLatencyMaxNs: 50,
		BandwidthMinGBs: 120, BandwidthMaxGBs: 200,
	},
	{
		Class:      ClassDRAM,
		DensityMin: 4, DensityMax: 16,
		LoadLatencyMinNs: 60, LoadLatencyMaxNs: 60,
		StoreLatencyMinNs: 60, StoreLatencyMaxNs: 60,
		BandwidthMinGBs: 15, BandwidthMaxGBs: 25,
	},
	{
		Class:      ClassNVM,
		DensityMin: 16, DensityMax: 64,
		LoadLatencyMinNs: 150, LoadLatencyMaxNs: 150,
		StoreLatencyMinNs: 300, StoreLatencyMaxNs: 600,
		BandwidthMinGBs: 2, BandwidthMaxGBs: 2,
	},
}

// ErrUnknownDevice reports a device class absent from DeviceCatalog.
var ErrUnknownDevice = errors.New("memsim: unknown device class")

// deviceIndex maps class → catalog position, built once at init so
// lookups don't rescan the catalog.
var deviceIndex = func() map[DeviceClass]int {
	idx := make(map[DeviceClass]int, len(DeviceCatalog))
	for i, d := range DeviceCatalog {
		idx[d.Class] = i
	}
	return idx
}()

// DeviceByClass returns the catalog entry for class, or an error
// wrapping ErrUnknownDevice if the catalog has no such row.
func DeviceByClass(c DeviceClass) (DeviceSpec, error) {
	i, ok := deviceIndex[c]
	if !ok {
		return DeviceSpec{}, fmt.Errorf("%w: %v", ErrUnknownDevice, c)
	}
	return DeviceCatalog[i], nil
}
