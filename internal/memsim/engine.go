package memsim

import (
	"strings"

	"heteroos/internal/obs"
	"heteroos/internal/sim"
)

// CPU describes the compute side of the platform. Instruction execution
// time is instr / (FreqGHz * IPC * active threads); the simulator does not
// model pipeline detail beyond that, because every evaluated effect in the
// paper is a memory-side effect.
type CPU struct {
	FreqGHz float64
	IPC     float64
	Cores   int
}

// DefaultCPU models the paper's 16-core 2.67 GHz Xeon.
func DefaultCPU() CPU { return CPU{FreqGHz: 2.67, IPC: 1.2, Cores: 16} }

// TierTraffic aggregates one epoch's LLC-miss traffic to a single tier.
type TierTraffic struct {
	LoadMisses  uint64
	StoreMisses uint64
}

// Total returns load+store misses.
func (t TierTraffic) Total() uint64 { return t.LoadMisses + t.StoreMisses }

// EpochCharge is everything the engine needs to price one epoch of one
// VM's execution.
type EpochCharge struct {
	// Instr is the number of instructions retired this epoch, across all
	// threads of the workload.
	Instr uint64
	// Threads is the number of runnable worker threads.
	Threads int
	// Traffic is the per-tier LLC-miss traffic.
	Traffic [NumTiers]TierTraffic
	// MLP is the per-thread memory-level parallelism: how many
	// outstanding misses one thread overlaps, hiding latency. Threads
	// overlap their miss chains with each other, so the total latency
	// divisor is MLP x Threads. Pointer-chasing code sits near 1.
	MLP float64
	// BytesPerMiss is the effective DRAM traffic per LLC miss. It may
	// fall below one cache line: row-buffer locality, write combining
	// and partial writebacks mean not every miss pays a full 64-byte
	// transfer at the memory device (minimum 8).
	BytesPerMiss float64
	// StoreVisibleFrac is the fraction of store misses whose latency is
	// not absorbed by write-back buffering and reaches the pipeline.
	StoreVisibleFrac float64
	// OSTime is software overhead accrued this epoch (allocator work,
	// hotness scans, migrations, balloon operations).
	OSTime sim.Duration
}

// EpochCost itemises the engine's pricing of one epoch.
type EpochCost struct {
	CPUTime  sim.Duration
	MemTime  [NumTiers]sim.Duration
	OSTime   sim.Duration
	Total    sim.Duration
	BWBound  [NumTiers]bool // whether the tier was bandwidth- (vs latency-) limited
	Misses   [NumTiers]uint64
	BytesOut [NumTiers]uint64
}

// EngineObs is the engine's preregistered instrument set: how many
// epochs it priced, the distribution of epoch costs, and per-tier
// miss/byte/bandwidth-bound accounting. All instruments are registered
// once at construction; observing them in Charge is plain field
// arithmetic, so the hot path stays allocation-free.
type EngineObs struct {
	charges  *obs.Counter
	epochNs  *obs.Histogram
	osNs     *obs.Histogram
	memNs    [NumTiers]*obs.Histogram
	misses   [NumTiers]*obs.Counter
	bytesOut [NumTiers]*obs.Counter
	bwBound  [NumTiers]*obs.Counter
}

// NewEngineObs registers the engine's instruments in reg under the
// "memsim." namespace.
func NewEngineObs(reg *obs.Registry) *EngineObs {
	eo := &EngineObs{
		charges: reg.Counter("memsim.charges"),
		epochNs: reg.Histogram("memsim.epoch_total_ns"),
		osNs:    reg.Histogram("memsim.epoch_os_ns"),
	}
	for t := Tier(0); t < NumTiers; t++ {
		name := strings.ToLower(t.String())
		eo.memNs[t] = reg.Histogram("memsim." + name + ".mem_ns")
		eo.misses[t] = reg.Counter("memsim." + name + ".misses")
		eo.bytesOut[t] = reg.Counter("memsim." + name + ".bytes")
		eo.bwBound[t] = reg.Counter("memsim." + name + ".bw_bound_epochs")
	}
	return eo
}

// observe records one priced epoch.
func (eo *EngineObs) observe(cost *EpochCost) {
	eo.charges.Inc()
	eo.epochNs.Observe(float64(cost.Total))
	eo.osNs.Observe(float64(cost.OSTime))
	for t := Tier(0); t < NumTiers; t++ {
		if cost.Misses[t] == 0 && cost.MemTime[t] == 0 {
			continue
		}
		eo.memNs[t].Observe(float64(cost.MemTime[t]))
		eo.misses[t].Add(cost.Misses[t])
		eo.bytesOut[t].Add(cost.BytesOut[t])
		if cost.BWBound[t] {
			eo.bwBound[t].Inc()
		}
	}
}

// Engine is the analytic backend: it prices epochs against a machine's
// tier specs with the paper's Table-3 model. It is the fidelity
// reference — every figure the repo reproduces is defined by this
// model's output — and the default Backend a System runs with.
type Engine struct {
	machine *Machine
	cpu     CPU
	// obs, when non-nil, receives per-charge accounting. It never
	// changes pricing; Charge's arithmetic is identical with it on or
	// off.
	obs *EngineObs
}

// NewAnalytic builds the analytic Table-3 engine over m, pricing
// compute on the paper's Xeon (DefaultCPU). WithObs attaches per-charge
// accounting.
func NewAnalytic(m *Machine, opts ...Option) *Engine {
	o := applyOptions(opts)
	e := &Engine{machine: m, cpu: DefaultCPU()}
	if o.reg != nil {
		e.obs = NewEngineObs(o.reg)
	}
	return e
}

// Name identifies the analytic backend.
func (e *Engine) Name() string { return BackendAnalytic }

// Machine exposes the machine the engine prices against.
func (e *Engine) Machine() *Machine { return e.machine }

// EffectiveMPKI applies the LLC power-law miss curve: the workload's
// reference MPKI rescaled for the configured cache and working set.
func (e *Engine) EffectiveMPKI(llc LLC, mpki float64, wssBytes int64) float64 {
	return mpki * llc.MPKIScale(wssBytes)
}

// Charge prices one epoch. Per tier, the latency component is the miss
// chain divided by the total outstanding-miss window (MLP x threads),
// and the bandwidth component is bytes moved / tier bandwidth. The two
// add: queueing delay at a loaded channel stretches every miss, so
// bandwidth pressure degrades even latency-bound phases smoothly (this
// also reproduces Observation 1's gradual bandwidth sensitivity rather
// than a sharp roofline kink). Tier costs add: a thread blocked on a
// SlowMem line does not advance FastMem work.
func (e *Engine) Charge(c EpochCharge) EpochCost {
	var cost EpochCost

	threads := c.Threads
	if threads < 1 {
		threads = 1
	}
	if threads > e.cpu.Cores {
		threads = e.cpu.Cores
	}
	ips := e.cpu.FreqGHz * e.cpu.IPC * float64(threads) // instructions per ns
	if ips > 0 {
		cost.CPUTime = sim.Duration(float64(c.Instr) / ips)
	}

	mlp := c.MLP
	if mlp < 1 {
		mlp = 1
	}
	latDivisor := mlp * float64(threads)
	bpm := c.BytesPerMiss
	if bpm < MinBytesPerMiss {
		bpm = MinBytesPerMiss
	}
	svf := c.StoreVisibleFrac
	if svf < 0 {
		svf = 0
	} else if svf > 1 {
		svf = 1
	}

	for t := Tier(0); t < NumTiers; t++ {
		tr := c.Traffic[t]
		if tr.Total() == 0 {
			continue
		}
		spec := e.machine.Spec(t)
		// Write-back buffering absorbs most store latency on symmetric
		// memory, but on asymmetric (NVM-class) tiers the device write
		// path is the bottleneck and buffers drain too slowly to hide
		// it (Dulloor et al.): stores become twice as visible there.
		tierSVF := svf
		if spec.StoreLatencyNs > spec.LoadLatencyNs {
			tierSVF = svf * 2
			if tierSVF > 1 {
				tierSVF = 1
			}
		}
		latNs := (float64(tr.LoadMisses)*spec.LoadLatencyNs +
			float64(tr.StoreMisses)*spec.StoreLatencyNs*tierSVF) / latDivisor
		bytes := float64(tr.Total()) * bpm
		bwNs := bytes / spec.BandwidthGBs // GB/s == bytes/ns
		cost.Misses[t] = tr.Total()
		cost.BytesOut[t] = uint64(bytes)
		cost.MemTime[t] = sim.Duration(latNs + bwNs)
		cost.BWBound[t] = bwNs > latNs
	}

	cost.OSTime = c.OSTime
	cost.Total = cost.CPUTime + cost.MemTime[FastMem] + cost.MemTime[SlowMem] + cost.OSTime
	if e.obs != nil {
		e.obs.observe(&cost)
	}
	return cost
}
