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

// DefaultRingEvents is the tracer's default ring capacity. At 48 bytes
// per event this is 192 KiB per traced run — large enough that flushes
// are rare, small enough to preallocate per sweep job.
const DefaultRingEvents = 4096

// Tracer buffers events in a fixed-capacity ring and hands full
// batches to its sinks, so tracing costs one bounds check and one
// struct store per event between flushes. An Obs handle builds its
// tracer only when a sink is attached (Obs.AddSink).
//
// Tracer is not safe for concurrent use; the runner gives every sweep
// job its own Obs handle, and within a run each VM emits from the
// single simulation goroutine.
type Tracer struct {
	ring  []Event
	n     int
	sinks []Sink
	err   error
}

// NewTracer builds a tracer with the given ring capacity (capacity <= 0
// selects DefaultRingEvents).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultRingEvents
	}
	return &Tracer{ring: make([]Event, 0, capacity)}
}

// AddSink attaches a sink. Attach sinks before the run starts: the new
// sink sees only batches flushed after it was added.
func (t *Tracer) AddSink(s Sink) {
	if s != nil {
		t.sinks = append(t.sinks, s)
	}
}

// Emit records one event. When the ring is full it is flushed to the
// sinks first.
func (t *Tracer) Emit(ev Event) {
	if t.n == cap(t.ring) {
		t.flush()
	}
	t.ring = t.ring[:t.n+1]
	t.ring[t.n] = ev
	t.n++
}

// flush drains the ring into the sinks. The first sink error is
// retained (Close returns it) and later batches to that sink are still
// attempted so partial output stays as complete as the sink allows.
func (t *Tracer) flush() {
	if t.n == 0 {
		return
	}
	batch := t.ring[:t.n]
	for _, s := range t.sinks {
		if err := s.WriteBatch(batch); err != nil && t.err == nil {
			t.err = err
		}
	}
	t.n = 0
	t.ring = t.ring[:0]
}

// Flush forces buffered events out to the sinks.
func (t *Tracer) Flush() { t.flush() }

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
