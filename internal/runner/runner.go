// Package runner is a bounded worker pool for independent jobs. Every
// paper figure is a sweep of single-system runs and every fleet round
// steps its hosts one job each; neither kind of job shares mutable
// state with its siblings, so the pool only has to bound concurrency
// (GOMAXPROCS-wide by default), honour cancellation, confine a job's
// panic to that job and report progress. What a job computes and where
// it stores its result are the caller's business: the experiment sweep
// (internal/exp) owns its cells and the fleet (internal/fleet) owns its
// hosts.
//
// Determinism is the callers' part too: a job's outcome must depend
// only on its inputs (every simulation RNG stream derives from its
// Config.Seed), and callers read results in submission order, so any
// worker count yields the same output. Mix64 and DeriveSeed carve
// decorrelated seeds out of one root seed for such callers.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// ErrJobPanicked wraps a panic raised inside one job. The panic is
// confined to that job: its Future carries the error (with the
// recovered value and stack) while sibling jobs run to completion.
var ErrJobPanicked = errors.New("runner: job panicked")

// Options tunes a pool.
type Options struct {
	// Workers bounds concurrently running jobs; <=0 means GOMAXPROCS.
	Workers int
	// Progress, when set, is invoked after each job finishes (in
	// completion order, serialized, with a monotone done count) with
	// the number of finished jobs, the number submitted so far and the
	// finished job's label. Jobs resolved by cancellation report too.
	Progress func(done, submitted int, label string)
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

// DeriveSeed maps a root seed and an index to that index's seed via a
// splitmix64 step, stable across runs and worker counts. The
// golden-weyl increment spaces consecutive indices far apart in the
// input domain before Mix64 avalanches them; zero is remapped because a
// zero seed means "use the default" throughout the tree.
func DeriveSeed(rootSeed uint64, index int) uint64 {
	z := Mix64(rootSeed + uint64(index+1)*0x9e3779b97f4a7c15)
	if z == 0 {
		z = 1
	}
	return z
}

// Pool runs submitted jobs on a bounded number of goroutines. It needs
// no Close: each job's goroutine exits once the job finishes or the
// pool's context is cancelled.
type Pool struct {
	ctx  context.Context
	opts Options
	// sem bounds concurrently running jobs.
	sem chan struct{}

	mu        sync.Mutex
	submitted int
	done      int
}

// NewPool builds a pool bound to ctx.
func NewPool(ctx context.Context, opts Options) *Pool {
	return &Pool{ctx: ctx, opts: opts, sem: make(chan struct{}, opts.workers())}
}

// Future is one submitted job's pending outcome.
type Future struct {
	ch  chan struct{}
	err error
}

// Wait blocks until the job finishes (or the pool's context cancels it
// before it starts) and returns its error. Everything the job wrote
// happens before Wait returns.
func (f *Future) Wait() error {
	<-f.ch
	return f.err
}

// Go queues fn and returns immediately. fn runs under the pool's
// context as soon as a worker slot frees up; a panic inside it resolves
// the future with an error wrapping ErrJobPanicked, and a context
// cancelled before fn starts resolves it with the context error
// instead. fn must watch ctx itself to stop early once it has started.
func (p *Pool) Go(label string, fn func(ctx context.Context) error) *Future {
	f := &Future{ch: make(chan struct{})}
	p.mu.Lock()
	p.submitted++
	p.mu.Unlock()
	go func() {
		defer close(f.ch)
		select {
		case p.sem <- struct{}{}:
			// The slot frees only after progress, so the job waiting
			// for it sees a cancellation made by the Progress callback.
			defer func() { <-p.sem }()
			if f.err = p.ctx.Err(); f.err == nil {
				f.err = guard(p.ctx, fn)
			}
		case <-p.ctx.Done():
			f.err = p.ctx.Err()
		}
		p.progress(label)
	}()
	return f
}

// guard converts a panic anywhere inside fn into a per-job error.
func guard(ctx context.Context, fn func(ctx context.Context) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v\n%s", ErrJobPanicked, r, debug.Stack())
		}
	}()
	return fn(ctx)
}

func (p *Pool) progress(label string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	if p.opts.Progress != nil {
		// Invoked under the lock so callbacks are serialized and see a
		// monotone done count.
		p.opts.Progress(p.done, p.submitted, label)
	}
}
