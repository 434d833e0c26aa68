package workload

import (
	"heteroos/internal/guestos"
	"heteroos/internal/sim"
)

// MemLat is the pointer-chasing latency microbenchmark of Figure 6
// ('memlat'): uniform dependent loads over a configurable working set,
// MLP 1, heap pages only. The harness derives average access latency
// from the run's memory stall time and miss count.
type MemLat struct {
	cfg      Config
	rng      *sim.RNG
	profile  Profile
	wssBytes int64

	heap  *heapRegion
	epoch int
}

// NewMemLat builds the benchmark with working set wssBytes.
func NewMemLat(cfg Config, wssBytes int64) *MemLat {
	return &MemLat{
		cfg:      cfg,
		rng:      sim.NewRNG(cfg.Seed ^ 0x6d656d6c),
		wssBytes: wssBytes,
		profile: Profile{
			Name:          "memlat",
			Description:   "pointer-chase latency microbenchmark",
			Metric:        "latency (cycles)",
			MPKI:          50, // dependent chain: nearly every access misses
			WSSBytes:      wssBytes,
			Threads:       1,
			MLP:           1,
			BytesPerMiss:  64,
			StoreMissFrac: 0,
			InstrPerEpoch: 200_000_000,
			TotalEpochs:   20,
		},
	}
}

// Profile implements Workload.
func (m *MemLat) Profile() Profile { return m.profile }

// Init implements Workload.
func (m *MemLat) Init(os *guestos.OS) error {
	pages := m.cfg.Pages(m.wssBytes)
	var err error
	// Uniform access: hot set == whole region.
	m.heap, err = newHeapRegion(os, m.rng, pages, pages, 1.0)
	return err
}

// Step implements Workload.
func (m *MemLat) Step(os *guestos.OS) (uint64, bool) {
	m.epoch++
	if err := m.heap.touch(os, touchSamples, 4, 0); err != nil {
		return 0, true
	}
	return m.profile.InstrPerEpoch, m.epoch >= m.profile.TotalEpochs
}

// Stream is the STREAM bandwidth microbenchmark of Figure 7: sequential
// high-MLP sweeps with a store per load (copy kernel), so the run is
// bandwidth-bound and the harness derives GB/s from bytes moved over
// memory time.
type Stream struct {
	cfg      Config
	rng      *sim.RNG
	profile  Profile
	wssBytes int64

	heap   *heapRegion
	cursor *sim.SequentialWindow
	epoch  int
}

// NewStream builds the benchmark with working set wssBytes.
func NewStream(cfg Config, wssBytes int64) *Stream {
	return &Stream{
		cfg:      cfg,
		rng:      sim.NewRNG(cfg.Seed ^ 0x73747265),
		wssBytes: wssBytes,
		profile: Profile{
			Name:          "stream",
			Description:   "STREAM copy bandwidth microbenchmark",
			Metric:        "bandwidth (GB/s)",
			MPKI:          60, // streaming: every line is a compulsory miss
			WSSBytes:      wssBytes,
			Threads:       8,
			MLP:           16,
			BytesPerMiss:  128, // load + writeback per copied line
			StoreMissFrac: 0.5,
			InstrPerEpoch: 400_000_000,
			TotalEpochs:   20,
		},
	}
}

// Profile implements Workload.
func (s *Stream) Profile() Profile { return s.profile }

// Init implements Workload.
func (s *Stream) Init(os *guestos.OS) error {
	pages := s.cfg.Pages(s.wssBytes)
	var err error
	s.heap, err = newHeapRegion(os, s.rng, pages, pages, 1.0)
	if err != nil {
		return err
	}
	s.cursor = sim.NewSequentialWindow(int(pages))
	return nil
}

// Step implements Workload.
func (s *Stream) Step(os *guestos.OS) (uint64, bool) {
	s.epoch++
	// Sequential sweep, one pass per epoch segment.
	sweep := touchSamples
	for i := 0; i < sweep; i++ {
		vpn := s.heap.vma.Start + guestos.VPN(s.cursor.Sample())
		if _, err := os.TouchVPN(vpn, 2, 2); err != nil {
			return 0, true
		}
	}
	return s.profile.InstrPerEpoch, s.epoch >= s.profile.TotalEpochs
}

// WriteHeavy is a store-dominated microbenchmark for the write-aware
// migration extension (Section 4.3): a hot set that mostly writes, a
// warm set that mostly reads. On NVM-class SlowMem (2-4x store
// penalty), placing the writers in FastMem matters far more than the
// readers, which is exactly what write-bit tracking detects.
type WriteHeavy struct {
	cfg      Config
	rng      *sim.RNG
	profile  Profile
	wssBytes int64

	writers *heapRegion
	readers *heapRegion
	epoch   int
}

// NewWriteHeavy builds the benchmark with working set wssBytes split
// between a write-hot and a read-hot region.
func NewWriteHeavy(cfg Config, wssBytes int64) *WriteHeavy {
	return &WriteHeavy{
		cfg:      cfg,
		rng:      sim.NewRNG(cfg.Seed ^ 0x77686576),
		wssBytes: wssBytes,
		profile: Profile{
			Name:          "writeheavy",
			Description:   "store-dominated microbenchmark for write-aware migration",
			Metric:        "time(sec)",
			MPKI:          30,
			WSSBytes:      wssBytes,
			Threads:       2,
			MLP:           2,
			BytesPerMiss:  32,
			StoreMissFrac: 0.55,
			InstrPerEpoch: 400_000_000,
			TotalEpochs:   60,
		},
	}
}

// Profile implements Workload.
func (w *WriteHeavy) Profile() Profile { return w.profile }

// Init implements Workload.
func (w *WriteHeavy) Init(os *guestos.OS) error {
	half := w.cfg.Pages(w.wssBytes) / 2
	var err error
	w.writers, err = newHeapRegion(os, w.rng, half*2, half, 0.95)
	if err != nil {
		return err
	}
	w.readers, err = newHeapRegion(os, w.rng, half*2, half, 0.95)
	return err
}

// Step implements Workload.
func (w *WriteHeavy) Step(os *guestos.OS) (uint64, bool) {
	w.epoch++
	// Writers: almost every access is a store.
	if err := w.writers.touch(os, touchSamples/2, 4, 0.9); err != nil {
		return 0, true
	}
	// Readers: loads only, same reference rate.
	if err := w.readers.touch(os, touchSamples/2, 4, 0); err != nil {
		return 0, true
	}
	return w.profile.InstrPerEpoch, w.epoch >= w.profile.TotalEpochs
}
