package obs

// Sink consumes batches of events flushed from the tracer ring. Sinks
// run outside the simulation hot path (at ring-full boundaries and on
// Close), so they may allocate and do I/O.
type Sink interface {
	// WriteBatch persists the batch. The slice is only valid for the
	// duration of the call; sinks must not retain it.
	WriteBatch(batch []Event) error
	// Close flushes and releases the sink.
	Close() error
}

// DefaultRingEvents is the tracer's default ring capacity. At 72 bytes
// per event this is ~300 KiB per run — large enough that flushes are
// rare, small enough to preallocate per sweep job.
const DefaultRingEvents = 4096

// Tracer buffers events in a fixed-capacity ring and hands full
// batches to its sinks. With no sinks attached (the default), a full
// ring is simply reused and a drop counter incremented, so tracing
// costs one bounds check and one struct store per event and never
// allocates after construction.
//
// Tracer is not safe for concurrent use; the runner gives every sweep
// job its own Obs handle, and within a run each VM emits from the
// single simulation goroutine.
type Tracer struct {
	ring    []Event
	n       int
	sinks   []Sink
	dropped uint64
	// dropCounter, when set, mirrors the drop total into the metrics
	// registry (obs.DroppedCounterName) at every flush, so snapshots
	// taken at any point see the loss without a separate sync step.
	dropCounter *Counter
	err         error
}

// NewTracer builds a tracer with the given ring capacity (capacity <= 0
// selects DefaultRingEvents).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultRingEvents
	}
	return &Tracer{ring: make([]Event, 0, capacity)}
}

// AddSink attaches a sink. Attach sinks before the run starts: events
// already dropped are not replayed.
func (t *Tracer) AddSink(s Sink) {
	if s != nil {
		t.sinks = append(t.sinks, s)
	}
}

// Emit records one event. When the ring is full it is flushed to the
// sinks first (or discarded, counting drops, when no sink is
// attached).
func (t *Tracer) Emit(ev Event) {
	if t.n == cap(t.ring) {
		t.flush()
	}
	t.ring = t.ring[:t.n+1]
	t.ring[t.n] = ev
	t.n++
}

// flush drains the ring into the sinks. The first sink error is
// retained (Err) and later batches to that sink are still attempted so
// partial output stays as complete as the sink allows.
func (t *Tracer) flush() {
	if t.n == 0 {
		return
	}
	if len(t.sinks) == 0 {
		t.dropped += uint64(t.n)
		if t.dropCounter != nil {
			t.dropCounter.set(t.dropped)
		}
	} else {
		batch := t.ring[:t.n]
		for _, s := range t.sinks {
			if err := s.WriteBatch(batch); err != nil && t.err == nil {
				t.err = err
			}
		}
	}
	t.n = 0
	t.ring = t.ring[:0]
}

// HasSinks reports whether any sink is attached, i.e. whether emitted
// events are kept rather than dropped.
func (t *Tracer) HasSinks() bool { return len(t.sinks) > 0 }

// Flush forces buffered events out to the sinks.
func (t *Tracer) Flush() { t.flush() }

// Dropped reports how many events were discarded because the ring
// filled with no sink attached.
func (t *Tracer) Dropped() uint64 { return t.dropped }

// Err returns the first sink write error, if any.
func (t *Tracer) Err() error { return t.err }

// Close flushes the ring and closes every sink, returning the first
// error encountered.
func (t *Tracer) Close() error {
	t.flush()
	err := t.err
	for _, s := range t.sinks {
		if cerr := s.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	t.sinks = nil
	return err
}
