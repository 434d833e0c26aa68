package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"

	"heteroos/internal/metrics"
)

// Kind distinguishes the registry's instrument types.
type Kind uint8

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is a last-value instrument.
	KindGauge
	// KindHistogram is a log2-bucketed distribution.
	KindHistogram
)

// String names the kind for snapshot tables.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing count. Updates are plain field
// stores: each sweep job owns its registry, so no atomics are needed
// and Inc stays allocation- and contention-free.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Gauge records the most recent value of a quantity that can move in
// both directions (free-page percentages, budgets).
type Gauge struct{ v float64 }

// Set records v.
func (g *Gauge) Set(v float64) { g.v = v }

// histBuckets covers the full uint64 range: bucket i counts values v
// with bits.Len64(v) == i, i.e. bucket 0 holds zero and bucket i>0
// holds [2^(i-1), 2^i). Log-scaled buckets keep nanosecond latencies
// and page counts in one cheap fixed-size instrument.
const histBuckets = 65

// Histogram is a log2-bucketed distribution of non-negative values
// (latencies in ns, sizes in pages). Observe is a couple of integer
// ops and never allocates.
type Histogram struct {
	buckets [histBuckets]uint64
	count   uint64
	sum     float64
	max     uint64
}

// Observe records v. Negative values clamp to zero.
func (h *Histogram) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	h.buckets[bits.Len64(u)]++
	h.count++
	h.sum += v
	if u > h.max {
		h.max = u
	}
}

// quantile estimates the q-quantile (0 < q <= 1) from bucket counts:
// the upper bound of the bucket where the cumulative count crosses
// q*total, clamped to the observed max. Within a factor of 2, which is
// all a log-scaled histogram promises.
func quantileOf(buckets *[histBuckets]uint64, count, max uint64, q float64) float64 {
	if count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += buckets[i]
		if cum >= rank {
			if i == 0 {
				return 0
			}
			upper := math.Ldexp(1, i) // 2^i, exact beyond uint64 range
			if float64(max) < upper {
				return float64(max)
			}
			return upper
		}
	}
	return float64(max)
}

// metric is one registered instrument.
type metric struct {
	name string
	kind Kind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// ScopeSep separates scope path segments ("host0/vm3") and a scope
// path from a metric name in a full name ("host0/vm3/guestos.faults").
const ScopeSep = "/"

// Registry holds the named instruments of one scope plus its child
// scopes. Registration is idempotent by name — asking for an existing
// name returns the same instrument — so layers can register at boot
// without coordinating, and registration order is preserved for
// deterministic snapshots.
//
// Scope derives child registries forming a tree (run → host → vm);
// Snapshot walks the whole subtree, tagging every value with its scope
// path relative to the snapshotted registry. Instrument updates are
// lock-free (each scope's instruments belong to one goroutine); only
// scope creation and snapshotting take the tree mutex, so child scopes
// handed to concurrent jobs stay safe as long as each job touches only
// its own subtree.
type Registry struct {
	// segment is this registry's own path segment ("" at the root);
	// path is the full scope path from the tree root.
	segment string
	path    string
	byName  map[string]int
	ordered []metric

	// mu guards the children list (creation and snapshot traversal).
	mu       sync.Mutex
	children []*Registry
	childIdx map[string]*Registry
}

// NewRegistry builds an empty root registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]int)}
}

// Scope returns the child registry named name, creating it on first
// use. Metrics registered on the child appear in this registry's
// Snapshot with their scope path prefixed by name. Scope names must not
// contain ScopeSep (use nested Scope calls for deeper paths).
func (r *Registry) Scope(name string) *Registry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.childIdx[name]; ok {
		return c
	}
	path := name
	if r.path != "" {
		path = r.path + ScopeSep + name
	}
	c := &Registry{segment: name, path: path, byName: make(map[string]int)}
	if r.childIdx == nil {
		r.childIdx = make(map[string]*Registry)
	}
	r.childIdx[name] = c
	r.children = append(r.children, c)
	return c
}

// lookup returns the index of name, creating it with kind if absent.
// A name registered twice with different kinds keeps the first kind;
// the mismatched request receives a detached instrument so both call
// sites stay safe (this is a programming error, not a runtime one, and
// the unit tests pin the taxonomy).
func (r *Registry) lookup(name string, kind Kind) (int, bool) {
	if i, ok := r.byName[name]; ok {
		return i, r.ordered[i].kind == kind
	}
	m := metric{name: name, kind: kind}
	switch kind {
	case KindCounter:
		m.c = &Counter{}
	case KindGauge:
		m.g = &Gauge{}
	case KindHistogram:
		m.h = &Histogram{}
	}
	r.byName[name] = len(r.ordered)
	r.ordered = append(r.ordered, m)
	return len(r.ordered) - 1, true
}

// Counter returns the counter registered under name.
func (r *Registry) Counter(name string) *Counter {
	i, ok := r.lookup(name, KindCounter)
	if !ok {
		return &Counter{}
	}
	return r.ordered[i].c
}

// Gauge returns the gauge registered under name.
func (r *Registry) Gauge(name string) *Gauge {
	i, ok := r.lookup(name, KindGauge)
	if !ok {
		return &Gauge{}
	}
	return r.ordered[i].g
}

// Histogram returns the histogram registered under name.
func (r *Registry) Histogram(name string) *Histogram {
	i, ok := r.lookup(name, KindHistogram)
	if !ok {
		return &Histogram{}
	}
	return r.ordered[i].h
}

// MetricValue is one instrument's state inside a Snapshot.
type MetricValue struct {
	// Scope is the instrument's scope path relative to the snapshotted
	// registry ("" for its own instruments, "vm3" or "host0/vm3" for
	// subtree instruments).
	Scope string
	// Name is the registered name within the scope.
	Name string
	// Kind is the instrument type.
	Kind Kind
	// Value is the counter count or gauge value; for histograms it is
	// the observation count.
	Value float64
	// Sum is the histogram's value sum (0 otherwise).
	Sum float64
	// Max is the histogram's observed maximum (0 otherwise).
	Max float64
	// buckets holds a histogram's bucket counts (nil for counters and
	// gauges) so quantiles survive merges and rollups. A snapshot never
	// writes through a pointer it shares with another snapshot.
	buckets *[histBuckets]uint64
}

// FullName joins the scope path and name ("vm3/guestos.faults"); for
// root-scope metrics it is just the name.
func (m *MetricValue) FullName() string {
	if m.Scope == "" {
		return m.Name
	}
	return m.Scope + ScopeSep + m.Name
}

// Quantile estimates the q-quantile for histogram values (0 for
// counters and gauges).
func (m *MetricValue) Quantile(q float64) float64 {
	if m.buckets == nil {
		return 0
	}
	return quantileOf(m.buckets, uint64(m.Value), uint64(m.Max), q)
}

// Snapshot is a point-in-time copy of every registered instrument of a
// registry subtree: the registry's own instruments in registration
// order, then each child scope's depth-first in creation order.
// Snapshots are plain values, safe to merge and roll up later.
type Snapshot struct {
	// Values lists one entry per instrument.
	Values []MetricValue
}

// Snapshot copies the current state of every instrument in the subtree.
// It sizes the value list and the histograms' bucket arrays once, then
// fills them.
func (r *Registry) Snapshot() Snapshot {
	values, hists := r.size()
	s := Snapshot{Values: make([]MetricValue, 0, values)}
	buckets := make([][histBuckets]uint64, 0, hists)
	r.appendTo(&s, &buckets, "")
	return s
}

// size counts the subtree's instruments and, among them, histograms.
func (r *Registry) size() (values, hists int) {
	values = len(r.ordered)
	for _, m := range r.ordered {
		if m.kind == KindHistogram {
			hists++
		}
	}
	for _, c := range r.kids() {
		v, h := c.size()
		values, hists = values+v, hists+h
	}
	return values, hists
}

// kids returns a copy of the child list, safe to walk while other
// goroutines create scopes.
func (r *Registry) kids() []*Registry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Registry(nil), r.children...)
}

// appendTo appends the subtree's values to s, taking each histogram's
// bucket array from buckets. A scope created between size and appendTo
// only makes the appends grow their slices.
func (r *Registry) appendTo(s *Snapshot, buckets *[][histBuckets]uint64, scope string) {
	for _, m := range r.ordered {
		v := MetricValue{Scope: scope, Name: m.name, Kind: m.kind}
		switch m.kind {
		case KindCounter:
			v.Value = float64(m.c.v)
		case KindGauge:
			v.Value = m.g.v
		case KindHistogram:
			v.Value = float64(m.h.count)
			v.Sum = m.h.sum
			v.Max = float64(m.h.max)
			*buckets = append(*buckets, m.h.buckets)
			v.buckets = &(*buckets)[len(*buckets)-1]
		}
		s.Values = append(s.Values, v)
	}
	for _, c := range r.kids() {
		child := c.segment
		if scope != "" {
			child = scope + ScopeSep + child
		}
		c.appendTo(s, buckets, child)
	}
}

// mergeKey orders and deduplicates values across snapshots.
func mergeKey(v *MetricValue) string {
	return v.FullName() + "\x00" + v.Kind.String()
}

// accumulate folds src into dst (same key). Counters and histograms
// add losslessly (bucket-wise for histograms, so rolled-up quantiles
// are exactly what one combined instrument would have reported); Max
// and gauges take the maximum — for a gauge, "largest last-seen value
// in the subtree" is the only merge that stays commutative.
func accumulate(dst, src *MetricValue) {
	switch dst.Kind {
	case KindCounter:
		dst.Value += src.Value
	case KindGauge:
		if src.Value > dst.Value {
			dst.Value = src.Value
		}
	case KindHistogram:
		dst.Value += src.Value
		dst.Sum += src.Sum
		if src.Max > dst.Max {
			dst.Max = src.Max
		}
		for b := range dst.buckets {
			dst.buckets[b] += src.buckets[b]
		}
	}
}

// mergeValues combines value lists keyed by (scope, name, kind) and
// returns them sorted by full name — a canonical order, so merging is
// commutative and associative value-for-value. A histogram's buckets
// are copied the first time another value accumulates into it, so the
// inputs never change.
func mergeValues(lists ...[]MetricValue) []MetricValue {
	idx := make(map[string]int)
	var out []MetricValue
	var owned []bool // out[j].buckets was copied for out[j]
	for _, vs := range lists {
		for i := range vs {
			v := &vs[i]
			k := mergeKey(v)
			j, ok := idx[k]
			if !ok {
				idx[k] = len(out)
				out = append(out, *v)
				owned = append(owned, false)
				continue
			}
			if out[j].buckets != nil && !owned[j] {
				b := *out[j].buckets
				out[j].buckets, owned[j] = &b, true
			}
			accumulate(&out[j], v)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if a, b := out[i].FullName(), out[j].FullName(); a != b {
			return a < b
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Merge combines two snapshots: values sharing (scope, name, kind)
// aggregate losslessly (counters and histogram buckets add, gauges and
// maxima take the larger), distinct values pass through. The result is
// in canonical (sorted-by-full-name) order, which makes Merge
// commutative: Merge(a,b) == Merge(b,a), and Merge with an empty
// snapshot is the identity up to that ordering.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	return Snapshot{Values: mergeValues(s.Values, o.Values)}
}

// Rollup aggregates the snapshot upward across scopes: every value's
// scope is stripped and values sharing (name, kind) combine exactly as
// in Merge, so N per-VM scopes roll up to what a single unscoped
// registry observing the same stream would hold. The result is sorted
// by name.
func (s Snapshot) Rollup() Snapshot {
	stripped := make([]MetricValue, len(s.Values))
	for i, v := range s.Values {
		v.Scope = ""
		stripped[i] = v
	}
	return Snapshot{Values: mergeValues(stripped)}
}

// Table renders the snapshot as a metrics.Table titled title with one
// row per instrument: full scoped name, kind, value, and (for
// histograms) sum, mean, p50, p99, and max.
func (s Snapshot) Table(title string) *metrics.Table {
	t := metrics.NewTable(title, "metric", "kind", "value", "sum", "mean", "p50", "p99", "max")
	for i := range s.Values {
		v := &s.Values[i]
		if v.Kind != KindHistogram {
			t.AddRow(v.FullName(), v.Kind.String(), v.Value, "", "", "", "", "")
			continue
		}
		mean := 0.0
		if v.Value > 0 {
			mean = v.Sum / v.Value
		}
		t.AddRow(v.FullName(), v.Kind.String(), v.Value, v.Sum, mean,
			v.Quantile(0.50), v.Quantile(0.99), v.Max)
	}
	return t
}

// Find returns the metric whose FullName matches name, or nil.
func (s Snapshot) Find(name string) *MetricValue {
	for i := range s.Values {
		if s.Values[i].FullName() == name {
			return &s.Values[i]
		}
	}
	return nil
}
