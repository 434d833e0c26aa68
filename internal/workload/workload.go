// Package workload models the paper's application suite (Table 2):
// GraphChi, X-Stream, Metis, LevelDB, Redis, and NGinx, plus the memlat
// and STREAM microbenchmarks of Figures 6 and 7.
//
// A workload is a generator of OS-visible behaviour: it mmaps regions,
// touches pages with the application's locality pattern, performs file
// and network I/O through the guest kernel's real code paths, and
// reports its per-epoch instruction count. Instruction-level fidelity is
// deliberately absent — every metric the paper evaluates is driven by
// page-level events plus the measured memory intensity (MPKI, Table 4),
// working-set size, and page-type distribution (Figure 4), which are
// inputs here.
//
// All capacities are expressed in real bytes and divided by the
// simulation Scale when converted to pages, preserving every ratio the
// experiments depend on.
package workload

import (
	"errors"
	"fmt"
	"math/bits"

	"heteroos/internal/guestos"
	"heteroos/internal/memsim"
	"heteroos/internal/sim"
	"heteroos/internal/snapshot"
)

// ErrUnknownApp is returned (wrapped) by ByName for names outside the
// application catalog; match it with errors.Is.
var ErrUnknownApp = errors.New("workload: unknown application")

// Profile carries a workload's calibrated characteristics.
type Profile struct {
	Name        string
	Description string
	// Metric is the paper's performance metric for the app.
	Metric string
	// MPKI is the LLC misses per kilo-instruction measured on the
	// reference platform (Table 4).
	MPKI float64
	// WSSBytes is the active working set in real (unscaled) bytes; it
	// drives the LLC model.
	WSSBytes int64
	// Threads of runnable workers.
	Threads int
	// MLP is sustained memory-level parallelism.
	MLP float64
	// BytesPerMiss is traffic amplification per miss (prefetch,
	// streaming).
	BytesPerMiss float64
	// StoreMissFrac is the fraction of misses that are stores.
	StoreMissFrac float64
	// InstrPerEpoch is work per epoch across all threads.
	InstrPerEpoch uint64
	// TotalEpochs bounds the run.
	TotalEpochs int
	// OpsPerEpoch translates epochs to application operations for
	// throughput metrics (0 for runtime metrics).
	OpsPerEpoch float64
}

// Workload is one application instance. Implementations are stateful
// and single-use: Init once, then Step until done.
type Workload interface {
	Profile() Profile
	// Init sets up address-space regions and initial data.
	Init(os *guestos.OS) error
	// Step runs one epoch of application work against the guest OS and
	// reports instructions retired and whether the run is complete.
	Step(os *guestos.OS) (instr uint64, done bool)
	// SnapshotState codes run progress (epoch counters, RNG streams,
	// region cursors) for a checkpoint or a live migration, in one
	// field list for both directions. Reading overlays a freshly
	// Init-ed instance of the same workload and rebinds region pointers
	// to os's restored address space by VMA id.
	SnapshotState(c *snapshot.Codec, os *guestos.OS) error
}

// Config scales and seeds workload construction.
type Config struct {
	// Scale divides all real capacities; it must match the system's
	// memory scaling so ratios are preserved. Default 64.
	Scale uint64
	// Seed derives per-workload RNG streams.
	Seed uint64
}

// DefaultScale is the capacity divisor used throughout the experiments:
// 4 GiB of real memory becomes 16Ki simulated pages.
const DefaultScale = 64

func (c Config) scale() uint64 {
	if c.Scale == 0 {
		return DefaultScale
	}
	return c.Scale
}

// Pages converts real bytes to scaled page counts (minimum 1).
func (c Config) Pages(bytes int64) uint64 {
	p := uint64(bytes) / memsim.PageSize / c.scale()
	if p == 0 {
		p = 1
	}
	return p
}

// GiB is a capacity literal helper.
const GiB = int64(1) << 30

// MiB is a capacity literal helper.
const MiB = int64(1) << 20

// touchSamples is the per-epoch distinct-page sampling budget.
const touchSamples = 3000

// heapRegion drives locality-distributed touches over one anonymous VMA.
// The hot window can drift across the region epoch by epoch, modelling
// the shifting working sets of iterative computations (graph engines
// sweep vertex ranges; map-reduce moves between partitions). Drift is
// what makes runtime page movement (LRU recycling, coordinated
// promotion) matter: a frozen placement decays as yesterday's cold pages
// become today's hot ones.
type heapRegion struct {
	vma      *guestos.VMA
	rng      *sim.RNG
	pages    uint64
	hotPages uint64
	hotFrac  float64
	hotStart uint64 // drifting window base
	drift    uint64 // window advance per epoch, in pages
	// Exact remainders by hotPages and by pages-hotPages (the latter
	// unused when the whole region is hot), rebuilt with the geometry.
	hotMod, coldMod sim.Modulus
	// Per-touch scratch, zero between calls: access counts per page
	// index and a bitmap of the indices sampled this touch.
	counts  []uint32
	touched []uint64
}

func newHeapRegion(os *guestos.OS, rng *sim.RNG, pages, hotPages uint64, hotFrac float64) (*heapRegion, error) {
	vma, err := os.AS.Mmap(pages, guestos.KindAnon, guestos.NilFile)
	if err != nil {
		return nil, err
	}
	if hotPages == 0 {
		hotPages = 1
	}
	if hotPages > pages {
		hotPages = pages
	}
	h := &heapRegion{
		vma:      vma,
		rng:      rng.Fork(),
		pages:    pages,
		hotPages: hotPages,
		hotFrac:  hotFrac,
		counts:   make([]uint32, pages),
		touched:  make([]uint64, (pages+63)/64),
	}
	h.setModuli()
	return h, nil
}

// setModuli precomputes the remainders draw takes. The geometry must
// already satisfy 1 <= hotPages <= pages.
func (h *heapRegion) setModuli() {
	h.hotMod = sim.NewModulus(h.hotPages)
	if h.pages > h.hotPages {
		h.coldMod = sim.NewModulus(h.pages - h.hotPages)
	}
}

// setDrift makes the hot window advance by pagesPerEpoch each touch.
func (h *heapRegion) setDrift(pagesPerEpoch uint64) { h.drift = pagesPerEpoch }

// sampleChunk is how many samples draw takes from the RNG per Fill.
const sampleChunk = 256

// draw takes samples page indices from the region's distribution and
// adds each one's accesses to the per-touch scratch: accessesPerSample
// for a hot-window sample, one for a cold-tail sample.
//
// Every sample consumes exactly two RNG values, whichever branch it
// takes: the Bool(hotFrac) value, then the offset value. So the values
// are drawn in chunks with Fill, which equals the same number of Uint64
// calls, and sample i reads values 2i and 2i+1 of its chunk. The first
// is compared with sim.BoolCut(hotFrac), Bool's integer form. Each
// offset is the RNG's Intn (one value reduced modulo the range) with
// the remainder taken by a precomputed Modulus. The window offset wraps
// by one conditional subtract: hotStart < pages and the offset (below
// hotPages, or hotPages plus a cold offset below pages-hotPages) is
// below pages, so the sum is below 2*pages. A region that is all hot
// window draws its cold branch from the window's modulus without the
// start and still weighs it as hot.
func (h *heapRegion) draw(samples int, accessesPerSample uint64) {
	var buf [2 * sampleChunk]uint64
	hot := uint32(accessesPerSample)
	pages, hotPages, hotStart, hotCut := h.pages, h.hotPages, h.hotStart, sim.BoolCut(h.hotFrac)
	hotMod, coldMod := h.hotMod, h.coldMod
	counts, touched := h.counts, h.touched
	for samples > 0 {
		n := min(samples, sampleChunk)
		samples -= n
		vals := buf[:2*n]
		h.rng.Fill(vals)
		for i := 0; i+1 < len(vals); i += 2 {
			var idx uint64
			weight := hot
			switch {
			case vals[i]>>11 < hotCut:
				idx = hotStart + hotMod.Mod(vals[i+1])
			case pages == hotPages:
				idx = hotMod.Mod(vals[i+1])
			default:
				idx = hotStart + hotPages + coldMod.Mod(vals[i+1])
				weight = 1
			}
			if idx >= pages {
				idx -= pages
			}
			counts[idx] += weight
			touched[idx/64] |= 1 << (idx % 64)
		}
	}
}

// touch samples the region's distribution and issues the page touches.
// accessesPerSample weights hot-window samples; cold-tail samples carry
// a single access so a stray touch does not read as working-set
// membership to the LRU. storeFrac splits loads/stores. The hot window
// then drifts.
func (h *heapRegion) touch(os *guestos.OS, samples int, accessesPerSample uint64, storeFrac float64) error {
	h.draw(samples, accessesPerSample)
	// Touch in ascending VPN order (the bitmap's word order): fault
	// order decides frame assignment, so it must not depend on anything
	// but the samples. The scratch is zeroed as it is consumed, also
	// past an error, so the next touch starts clean.
	var err error
	for w, word := range h.touched {
		if word == 0 {
			continue
		}
		h.touched[w] = 0
		for ; word != 0; word &= word - 1 {
			idx := w*64 + bits.TrailingZeros64(word)
			n := uint64(h.counts[idx])
			h.counts[idx] = 0
			if err != nil {
				continue
			}
			stores := uint64(float64(n) * storeFrac)
			_, err = os.TouchVPN(h.vma.Start+guestos.VPN(idx), n-stores, stores)
		}
	}
	if err != nil {
		return err
	}
	h.hotStart = (h.hotStart + h.drift) % h.pages
	return nil
}

// sequentialRegion drives a streaming sweep over a file-mapped VMA.
type sequentialRegion struct {
	vma    *guestos.VMA
	cursor *sim.SequentialWindow
}

func newSequentialRegion(os *guestos.OS, pages uint64, file guestos.FileID) (*sequentialRegion, error) {
	vma, err := os.AS.Mmap(pages, guestos.KindPageCache, file)
	if err != nil {
		return nil, err
	}
	return &sequentialRegion{vma: vma, cursor: sim.NewSequentialWindow(int(pages))}, nil
}

// sweep touches n consecutive mapped pages (loads only: streamed input).
func (s *sequentialRegion) sweep(os *guestos.OS, n int, accessesPerPage uint64) error {
	for i := 0; i < n; i++ {
		vpn := s.vma.Start + guestos.VPN(s.cursor.Sample())
		if _, err := os.TouchVPN(vpn, accessesPerPage, 0); err != nil {
			return err
		}
	}
	return nil
}

// touchRange re-touches n mapped pages starting at position start
// (wrapping), for re-processing phases.
func (s *sequentialRegion) touchRange(os *guestos.OS, start, n int, accessesPerPage uint64) error {
	span := int(s.vma.Pages)
	for i := 0; i < n; i++ {
		vpn := s.vma.Start + guestos.VPN((start+i)%span)
		if _, err := os.TouchVPN(vpn, accessesPerPage, 0); err != nil {
			return err
		}
	}
	return nil
}

// ByName constructs a workload by its Table 2 name.
func ByName(name string, cfg Config) (Workload, error) {
	switch name {
	case "GraphChi", "graphchi":
		return NewGraphChi(cfg), nil
	case "X-Stream", "xstream":
		return NewXStream(cfg), nil
	case "Metis", "metis":
		return NewMetis(cfg), nil
	case "LevelDB", "leveldb":
		return NewLevelDB(cfg), nil
	case "Redis", "redis":
		return NewRedis(cfg), nil
	case "Nginx", "NGinx", "nginx":
		return NewNginx(cfg), nil
	case "memlat":
		return NewMemLat(cfg, 512*MiB), nil
	case "stream":
		return NewStream(cfg, 512*MiB), nil
	case "writeheavy":
		return NewWriteHeavy(cfg, 512*MiB), nil
	default:
		return nil, fmt.Errorf("%w %q", ErrUnknownApp, name)
	}
}

// Names lists the datacenter applications in Table 2 order.
func Names() []string {
	return []string{"GraphChi", "X-Stream", "Metis", "LevelDB", "Redis", "Nginx"}
}
