// Package runner executes batches of independent HeteroOS simulations
// concurrently. Every paper figure is a sweep of single-system runs —
// apps × modes × capacity ratios — with no shared state between cells,
// so the whole registry is embarrassingly parallel. The runner turns
// that into throughput: jobs go onto a bounded worker pool
// (GOMAXPROCS-wide by default), run under context cancellation with
// per-job panic isolation, and come back in deterministic input order
// regardless of worker count or completion order.
//
// Two entry points share the machinery:
//
//   - Run executes a prebuilt []Job slice and returns []Result aligned
//     index-for-index with the input — the batch-first core API.
//   - Pool/Future stream submissions for callers that interleave
//     building and collecting (the experiment sweeps): Submit returns
//     immediately, Future.Wait blocks for that one job.
//
// Determinism: a simulation's outcome is a pure function of its
// core.Config (every RNG stream derives from Config.Seed), so parallel
// execution yields byte-identical results to a serial loop. Jobs that
// leave Seed zero can draw a per-job seed derived from Options.BatchSeed
// and the submission index, which is equally stable across worker
// counts.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"heteroos/internal/core"
	"heteroos/internal/memsim"
	"heteroos/internal/obs"
)

// ErrJobPanicked wraps a panic raised inside one job's simulation. The
// panic is confined to that job: its Result carries the error (with the
// recovered value and stack) while sibling jobs run to completion.
var ErrJobPanicked = errors.New("runner: job panicked")

// Job is one named simulation: a complete system configuration plus a
// label for progress reporting and error attribution.
type Job struct {
	Label string
	Cfg   core.Config
}

// Result is the outcome of one Job, reported at the job's input index.
type Result struct {
	Label string
	// Res is the first VM's result — the single-VM convenience every
	// sweep cell uses. Nil when Err is set.
	Res *core.VMResult
	// Sys is the completed system; multi-VM consumers fetch per-VM
	// results from it. Nil when the system never booted.
	Sys *core.System
	// Err is nil on success. It wraps ErrJobPanicked for a panicking
	// job, carries the context error for jobs cancelled before or
	// during execution, and surfaces config/run errors otherwise.
	Err error
}

// Options tunes a batch.
type Options struct {
	// Workers bounds concurrent simulations; <=0 means GOMAXPROCS.
	Workers int
	// BatchSeed, when non-zero, assigns jobs whose Cfg.Seed is zero a
	// per-job seed derived from it and the job's submission index, so a
	// batch is reproducible from one number independent of worker
	// count.
	BatchSeed uint64
	// Progress, when set, is invoked after each job completes (in
	// completion order, serialized) with the number of finished jobs,
	// the number submitted so far, and that job's result.
	Progress func(done, submitted int, r Result)
	// NewObs, when set, builds a per-job observability handle for jobs
	// whose Cfg.Obs is nil, called synchronously at submission (in
	// submission order) with the job's label and resolved seed so
	// exporters can tag each run's events and metrics with its
	// identity. Jobs that arrive with Cfg.Obs set keep their handle.
	NewObs func(label string, seed uint64) *obs.Obs
	// Obs, when set (and NewObs is not), is the batch's parent handle:
	// each job whose Cfg.Obs is nil receives Obs.JobScope(label), so the
	// jobs' metrics land in per-job child scopes of one registry tree and
	// the parent's Snapshot/Rollup aggregate the whole batch. Scope
	// creation is synchronized; take the parent snapshot only after the
	// batch completes (instrument updates are per-job and lock-free).
	Obs *obs.Obs
	// ProfileEpochs turns on the epoch phase profiler for jobs that end
	// up with a handle (their own, NewObs-built, or a JobScope of Obs).
	ProfileEpochs bool
	// NewBackend, when set, supplies the machine-model builder for jobs
	// whose Cfg.Backend is nil; its user is a benchmark harness that
	// wraps the analytic engine in a per-cell timing decorator. Like
	// NewObs it is called synchronously at submission, in submission
	// order, so per-job state can be derived deterministically from the
	// label and seed. Jobs that arrive with Cfg.Backend set keep it.
	NewBackend func(label string, seed uint64) memsim.Builder
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Mix64 is the splitmix64 output finalizer: a full-avalanche bijection
// on uint64, so distinct inputs always map to distinct outputs and
// every output bit depends on every input bit. It is the mixing core
// behind DeriveSeed and the fleet host-seed derivation; use it whenever
// a family of decorrelated seeds must be carved out of one root seed.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed maps a batch seed and a job index to that job's simulation
// seed via a splitmix64 step — stable across runs and worker counts.
// The golden-weyl increment spaces consecutive indices far apart in the
// input domain before Mix64 avalanches them; zero is remapped because
// zero seeds mean "derive from the batch seed" throughout the tree.
func DeriveSeed(batchSeed uint64, index int) uint64 {
	z := Mix64(batchSeed + uint64(index+1)*0x9e3779b97f4a7c15)
	if z == 0 {
		z = 1
	}
	return z
}

// Run executes jobs on a bounded worker pool and returns results in
// input order. A cancelled context stops the batch promptly: in-flight
// simulations return within one epoch (core.RunContext checks the
// context per epoch), jobs not yet started are flagged with the context
// error, and Run's second return value reports ctx.Err(). Errors —
// including per-job panics — never abort sibling jobs.
func Run(ctx context.Context, jobs []Job, opts Options) ([]Result, error) {
	pool := NewPool(ctx, opts)
	futures := make([]*Future, len(jobs))
	for i, j := range jobs {
		futures[i] = pool.Submit(j.Label, j.Cfg)
	}
	results := make([]Result, len(jobs))
	for i, f := range futures {
		res, sys, err := f.Wait()
		results[i] = Result{Label: f.Label(), Res: res, Sys: sys, Err: err}
	}
	return results, ctx.Err()
}

// Pool is a bounded-concurrency simulation executor for streaming
// submission. It needs no Close: each job's goroutine exits once the
// job finishes or the pool's context is cancelled.
type Pool struct {
	ctx  context.Context
	opts Options
	// sem bounds concurrently executing simulations.
	sem chan struct{}

	mu        sync.Mutex
	submitted int
	done      int
	// scopeUses deduplicates JobScope labels: two jobs with the same
	// label must not share one child registry (instrument updates are
	// lock-free per job), so repeats get a "#n" suffix.
	scopeUses map[string]int
}

// NewPool builds a pool bound to ctx.
func NewPool(ctx context.Context, opts Options) *Pool {
	return &Pool{ctx: ctx, opts: opts, sem: make(chan struct{}, opts.workers())}
}

// Future is one submitted job's pending result.
type Future struct {
	label string
	ch    chan struct{}
	res   *core.VMResult
	sys   *core.System
	err   error
}

// Label returns the job's label.
func (f *Future) Label() string { return f.label }

// Wait blocks until the job finishes (or the pool's context is
// cancelled) and returns the first VM's result, the completed system,
// and the job's error.
func (f *Future) Wait() (*core.VMResult, *core.System, error) {
	<-f.ch
	return f.res, f.sys, f.err
}

// Err waits for the job and returns only its error.
func (f *Future) Err() error {
	<-f.ch
	return f.err
}

// Submit queues one simulation and returns immediately. The job runs as
// soon as a worker slot frees up; a cancelled pool context resolves the
// future with the context error instead.
func (p *Pool) Submit(label string, cfg core.Config) *Future {
	f := &Future{label: label, ch: make(chan struct{})}
	p.mu.Lock()
	index := p.submitted
	p.submitted++
	p.mu.Unlock()
	if p.opts.BatchSeed != 0 && cfg.Seed == 0 {
		cfg.Seed = DeriveSeed(p.opts.BatchSeed, index)
	}
	if p.opts.NewObs != nil && cfg.Obs == nil {
		cfg.Obs = p.opts.NewObs(label, cfg.Seed)
		if cfg.Obs != nil && cfg.Obs.RunTag() == "" {
			cfg.Obs.SetRunTag(label)
		}
	} else if p.opts.Obs != nil && cfg.Obs == nil {
		scopeLabel := label
		p.mu.Lock()
		if p.scopeUses == nil {
			p.scopeUses = make(map[string]int)
		}
		p.scopeUses[label]++
		if n := p.scopeUses[label]; n > 1 {
			scopeLabel = fmt.Sprintf("%s#%d", label, n)
		}
		p.mu.Unlock()
		cfg.Obs = p.opts.Obs.JobScope(scopeLabel)
		cfg.Obs.SetRunTag(label)
	}
	if p.opts.ProfileEpochs && cfg.Obs != nil {
		cfg.ProfileEpochs = true
	}
	if p.opts.NewBackend != nil && cfg.Backend == nil {
		cfg.Backend = p.opts.NewBackend(label, cfg.Seed)
	}
	p.start(f, func(ctx context.Context) (*core.VMResult, *core.System, error) {
		return execute(ctx, cfg)
	})
	return f
}

// SubmitFunc queues an arbitrary simulation job: fn runs on a worker
// slot under the pool's context with the same panic isolation, bounded
// concurrency, and progress reporting as Config jobs, and its return
// values resolve the future. The fleet engine uses this to step its
// hosts through the sweep machinery.
func (p *Pool) SubmitFunc(label string, fn func(ctx context.Context) (*core.VMResult, *core.System, error)) *Future {
	f := &Future{label: label, ch: make(chan struct{})}
	p.mu.Lock()
	p.submitted++
	p.mu.Unlock()
	p.start(f, fn)
	return f
}

// start launches the worker goroutine shared by Submit and SubmitFunc.
func (p *Pool) start(f *Future, fn func(ctx context.Context) (*core.VMResult, *core.System, error)) {
	go func() {
		defer close(f.ch)
		select {
		case p.sem <- struct{}{}:
			defer func() { <-p.sem }()
			if err := p.ctx.Err(); err != nil {
				f.err = err
				break
			}
			f.res, f.sys, f.err = guard(p.ctx, fn)
		case <-p.ctx.Done():
			f.err = p.ctx.Err()
		}
		p.progress(f)
	}()
}

// guard converts a panic anywhere inside fn into a per-job error.
func guard(ctx context.Context, fn func(ctx context.Context) (*core.VMResult, *core.System, error)) (res *core.VMResult, sys *core.System, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, sys, err = nil, nil, fmt.Errorf("%w: %v\n%s", ErrJobPanicked, r, debug.Stack())
		}
	}()
	return fn(ctx)
}

func (p *Pool) progress(f *Future) {
	p.mu.Lock()
	p.done++
	done, submitted := p.done, p.submitted
	cb := p.opts.Progress
	if cb != nil {
		// Invoke under the lock so callbacks are serialized and see a
		// monotone done count.
		cb(done, submitted, Result{Label: f.label, Res: f.res, Sys: f.sys, Err: f.err})
	}
	p.mu.Unlock()
}

// execute runs one simulation end to end; guard (in start) converts a
// panic anywhere in the stack into a per-job error.
func execute(ctx context.Context, cfg core.Config) (res *core.VMResult, sys *core.System, err error) {
	sys, err = core.NewSystem(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := sys.RunContext(ctx); err != nil {
		return nil, sys, err
	}
	if err := sys.CheckInvariants(); err != nil {
		return nil, sys, err
	}
	return &sys.VMs[0].Res, sys, nil
}
