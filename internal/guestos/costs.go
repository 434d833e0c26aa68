package guestos

// CostModel prices the software operations the guest OS performs, in
// nanoseconds. These are tier-independent software costs; memory-speed
// effects (copies at tier bandwidth, access stalls) are priced by the
// memsim engine from the per-tier counts the OS reports.
//
// Defaults are calibrated to the paper's measurements where it reports
// them (Table 6's per-page migration walk/copy costs; Figure 8's scan
// overheads) and to common x86/Linux figures elsewhere.
type CostModel struct {
	// PageFaultNs is the trap + handler cost of a minor fault.
	PageFaultNs float64
	// AllocFastPathNs is a free-stack hit.
	AllocFastPathNs float64
	// AllocSlowPathNs is a buddy allocation (lock, split).
	AllocSlowPathNs float64
	// FreeNs is returning one page.
	FreeNs float64
	// BalloonOpNs is one guest↔VMM balloon call (hypercall + queueing),
	// amortised per page in a batch.
	BalloonPerPageNs float64
	// MigratePageWalkNs / MigratePageCopyNs are the per-page costs of a
	// migration at the default batch size (Table 6, 8K batch: 43.21 µs
	// walk + 25.5 µs move).
	MigratePageWalkNs float64
	MigratePageCopyNs float64
	// TLBFlushNs is a full TLB shootdown across vCPUs.
	TLBFlushNs float64
	// DiskReadPageNs / DiskWritePageNs price one 4 KiB page of storage
	// I/O (datacenter-class SSD at roughly 500 MB/s streaming).
	DiskReadPageNs  float64
	DiskWritePageNs float64
	// WritebackAsyncFactor scales the visible cost of asynchronous
	// writeback (most of it overlaps execution).
	WritebackAsyncFactor float64
	// NetOpNs is the NIC + stack cost of one network operation,
	// excluding the buffer copies (priced per tier).
	NetOpNs float64
	// SyscallNs is the fixed entry/exit cost of one I/O syscall.
	SyscallNs float64
	// SwapPageNs prices one page of swap I/O.
	SwapPageNs float64
}

// Scaled returns a copy of the model with every per-page cost multiplied
// by factor. When the simulator scales capacities down by N (one
// simulated page stands for N real pages), per-page costs must scale up
// by N so software-overhead fractions stay true to the real system;
// per-event costs (syscalls, TLB shootdowns, network ops) are unchanged.
func (c CostModel) Scaled(factor float64) CostModel {
	if factor <= 0 {
		factor = 1
	}
	out := c
	out.PageFaultNs *= factor
	out.AllocFastPathNs *= factor
	out.AllocSlowPathNs *= factor
	out.FreeNs *= factor
	out.BalloonPerPageNs *= factor
	out.MigratePageWalkNs *= factor
	out.MigratePageCopyNs *= factor
	out.DiskReadPageNs *= factor
	out.DiskWritePageNs *= factor
	out.SwapPageNs *= factor
	return out
}

// DefaultCosts returns the calibrated cost model.
func DefaultCosts() CostModel {
	return CostModel{
		PageFaultNs:          1500,
		AllocFastPathNs:      80,
		AllocSlowPathNs:      400,
		FreeNs:               100,
		BalloonPerPageNs:     350,
		MigratePageWalkNs:    10250, // Table 6, 128K batch: guest-controlled
		MigratePageCopyNs:    11120, // migrations batch aggressively
		TLBFlushNs:           12000,
		DiskReadPageNs:       8000, // datacenter SSD, ~500 MB/s
		DiskWritePageNs:      6000,
		WritebackAsyncFactor: 0.25,
		NetOpNs:              4000,
		SyscallNs:            700,
		SwapPageNs:           60000,
	}
}

// MigrationBatchCosts reproduces Table 6: batching page walks and copies
// amortises the page-tree traversal and exploits bandwidth, reducing the
// per-page cost as the batch grows. The model interpolates between the
// paper's measured batch sizes.
func MigrationBatchCosts(batchPages int) (walkNs, copyNs float64) {
	type point struct {
		batch        float64
		walk, copyNs float64
	}
	pts := []point{
		{8 * 1024, 43210, 25500},
		{64 * 1024, 26320, 15700},
		{128 * 1024, 10250, 11120},
	}
	b := float64(batchPages)
	if b <= pts[0].batch {
		return pts[0].walk, pts[0].copyNs
	}
	if b >= pts[len(pts)-1].batch {
		last := pts[len(pts)-1]
		return last.walk, last.copyNs
	}
	for i := 1; i < len(pts); i++ {
		if b <= pts[i].batch {
			lo, hi := pts[i-1], pts[i]
			f := (b - lo.batch) / (hi.batch - lo.batch)
			return lo.walk + f*(hi.walk-lo.walk), lo.copyNs + f*(hi.copyNs-lo.copyNs)
		}
	}
	return pts[len(pts)-1].walk, pts[len(pts)-1].copyNs
}
