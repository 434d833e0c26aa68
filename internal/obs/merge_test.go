package obs

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestHistogramQuantileEdgeCases pins the estimator's boundary
// behaviour: empty distributions, single buckets, and the q extremes.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	var empty Histogram
	for _, q := range []float64{0, 0.5, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty.Quantile(%v) = %v, want 0", q, got)
		}
	}

	var zero Histogram
	zero.Observe(0)
	zero.Observe(0)
	for _, q := range []float64{0, 0.5, 1} {
		if got := zero.Quantile(q); got != 0 {
			t.Errorf("zeros.Quantile(%v) = %v, want 0", q, got)
		}
	}

	var single Histogram
	single.Observe(100)
	// One observation: every quantile is that observation (clamped to
	// the observed max, so the log2 bucket bound never overshoots).
	for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
		if got := single.Quantile(q); got != 100 {
			t.Errorf("single.Quantile(%v) = %v, want 100", q, got)
		}
	}

	var h Histogram
	h.Observe(1)
	h.Observe(1000)
	// q=0 clamps to rank 1: the smallest occupied bucket's bound,
	// which for an observation of 1 is at most 2.
	if got := h.Quantile(0); got > 2 {
		t.Errorf("Quantile(0) = %v, want <= 2", got)
	}
	// q=1 is the max bucket, clamped to the true max.
	if got := h.Quantile(1); got != 1000 {
		t.Errorf("Quantile(1) = %v, want 1000", got)
	}
}

// snapFor builds a small scoped snapshot with the given value bias so
// tests get distinct but overlapping key sets.
func snapFor(bias uint64) Snapshot {
	r := NewRegistry()
	r.Counter("shared.count").Add(10 + bias)
	r.Gauge("shared.gauge").Set(float64(bias))
	vm := r.Scope("vm1")
	vm.Counter("faults").Add(bias)
	h := vm.Histogram("lat_ns")
	h.Observe(float64(100 * (bias + 1)))
	h.Observe(float64(3 * (bias + 1)))
	if bias%2 == 0 {
		r.Scope("vm2").Counter("faults").Add(7)
	}
	return r.Snapshot()
}

// TestMergeProperties checks the algebra Merge documents:
// commutativity, associativity, and identity (up to canonical order).
func TestMergeProperties(t *testing.T) {
	a, b, c := snapFor(0), snapFor(1), snapFor(2)

	ab, ba := a.Merge(b), b.Merge(a)
	if !reflect.DeepEqual(ab, ba) {
		t.Errorf("Merge not commutative:\n a+b=%+v\n b+a=%+v", ab.Values, ba.Values)
	}

	left := a.Merge(b).Merge(c)
	right := a.Merge(b.Merge(c))
	if !reflect.DeepEqual(left, right) {
		t.Errorf("Merge not associative:\n (a+b)+c=%+v\n a+(b+c)=%+v", left.Values, right.Values)
	}

	// Identity: merging with empty only canonicalizes the order.
	id := a.Merge(Snapshot{})
	canon := Snapshot{Values: mergeValues(a.Values)}
	if !reflect.DeepEqual(id, canon) {
		t.Errorf("Merge with empty is not identity:\n got %+v\n want %+v", id.Values, canon.Values)
	}
	// And quantities survive: shared.count = 10+0 + 10+1.
	if v := ab.Find("shared.count"); v == nil || v.Value != 21 {
		t.Errorf("merged shared.count = %+v, want 21", v)
	}
	// Gauge takes the max.
	if v := ab.Find("shared.gauge"); v == nil || v.Value != 1 {
		t.Errorf("merged shared.gauge = %+v, want 1", v)
	}
	// Histogram adds bucket-wise under the shared scope.
	if v := ab.Find("vm1/lat_ns"); v == nil || v.Value != 4 || v.Sum != 100+3+200+6 {
		t.Errorf("merged vm1/lat_ns = %+v", v)
	}
}

// deepCopy returns a copy of s that shares no bucket array with it.
func deepCopy(s Snapshot) Snapshot {
	out := Snapshot{Values: append([]MetricValue(nil), s.Values...)}
	for i := range out.Values {
		if b := out.Values[i].buckets; b != nil {
			c := *b
			out.Values[i].buckets = &c
		}
	}
	return out
}

// Snapshots share histogram bucket arrays (a merge's output starts from
// its inputs' arrays), so merging or rolling one up must never write
// into another.
func TestMergeAndRollupLeaveInputsUnchanged(t *testing.T) {
	r := NewRegistry()
	for i, vm := range []string{"vm1", "vm2", "vm3"} {
		h := r.Scope(vm).Histogram("lat_ns")
		h.Observe(float64(10 * (i + 1)))
		h.Observe(float64(1000 * (i + 1)))
		r.Scope(vm).Counter("faults").Add(uint64(i))
	}
	a, b := r.Snapshot(), snapFor(1)
	ab := a.Merge(b)
	up := a.Rollup()
	inputs := []*Snapshot{&a, &b, &ab, &up}
	want := make([]Snapshot, len(inputs))
	for i, s := range inputs {
		want[i] = deepCopy(*s)
	}
	ab.Merge(a).Merge(b).Rollup()
	up.Merge(up).Merge(b.Rollup())
	a.Merge(a)
	for i, s := range inputs {
		if !reflect.DeepEqual(*s, want[i]) {
			t.Errorf("snapshot %d changed:\n got %+v\n want %+v", i, s.Values, want[i].Values)
		}
	}
	if v := up.Find("lat_ns"); v == nil || v.Value != 6 || v.Quantile(1) != 3000 {
		t.Errorf("rolled-up lat_ns = %+v", v)
	}
}

// TestRollupMatchesUnscopedRegistry is the differential acceptance
// check: N per-VM scopes rolled up must equal a single unscoped
// registry observing the exact same stream.
func TestRollupMatchesUnscopedRegistry(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	scoped := NewRegistry()
	flat := NewRegistry()
	const vms = 5
	regs := make([]*Registry, vms)
	for i := range regs {
		regs[i] = scoped.Scope("vm" + string(rune('0'+i)))
	}
	var lastGauge [vms]float64
	var gaugeSet [vms]bool
	for ev := 0; ev < 10000; ev++ {
		vm := rng.Intn(vms)
		v := float64(rng.Intn(1 << 20))
		switch rng.Intn(3) {
		case 0:
			regs[vm].Counter("events").Inc()
			flat.Counter("events").Inc()
		case 1:
			regs[vm].Gauge("level").Set(v)
			lastGauge[vm], gaugeSet[vm] = v, true
		default:
			regs[vm].Histogram("cost_ns").Observe(v)
			flat.Histogram("cost_ns").Observe(v)
		}
	}
	// Rollup takes the max over each scope's FINAL gauge value — emulate
	// that in the flat registry from the tracked per-VM last writes.
	for vm, ok := range gaugeSet {
		if ok && lastGauge[vm] > flat.Gauge("level").v {
			flat.Gauge("level").Set(lastGauge[vm])
		}
	}
	got := scoped.Snapshot().Rollup()
	want := flat.Snapshot().Rollup() // canonicalize order only
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rollup of %d scopes != unscoped registry:\n got %+v\n want %+v",
			vms, got.Values, want.Values)
	}
	// Quantiles derived from merged buckets match too.
	if g, w := got.Find("cost_ns"), want.Find("cost_ns"); g.Quantile(0.99) != w.Quantile(0.99) {
		t.Errorf("rolled-up p99 %v != flat p99 %v", g.Quantile(0.99), w.Quantile(0.99))
	}
}

// TestAppendJSONStringRoundTrip drives hostile strings through the
// JSON string encoder and checks encoding/json decodes them back to
// the sanitized original (invalid UTF-8 replaced with U+FFFD, exactly
// encoding/json's policy).
func TestAppendJSONStringRoundTrip(t *testing.T) {
	cases := []string{
		"",
		"plain",
		`quotes " and \ backslash`,
		"newline\nreturn\rtab\t",
		"控制\x00字符\x1f",
		"emoji 🚀 and accents é ü",
		"invalid \xff\xfe bytes",
		"truncated multibyte \xe4\xb8",
		"\x7f del and \x01 soh",
	}
	// Deterministic pseudo-fuzz: every byte value appears, in shuffled
	// clumps, so new escaping bugs can't hide behind the fixed cases.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 64; i++ {
		n := rng.Intn(40)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		lit := appendJSONString(nil, s)
		var got string
		if err := json.Unmarshal(lit, &got); err != nil {
			t.Errorf("literal for %q does not decode: %v (%s)", s, err, lit)
			continue
		}
		// encoding/json (and our encoder) replace each invalid byte
		// with one U+FFFD; []rune conversion has the same per-byte rule.
		want := string([]rune(s))
		if got != want {
			t.Errorf("round trip %q = %q, want %q", s, got, want)
		}
	}
}

// TestJSONLRunTagHostile pushes a hostile run tag through the full
// JSONL sink and requires the stream to stay line-parseable.
func TestJSONLRunTagHostile(t *testing.T) {
	var sb strings.Builder
	sink := NewJSONLSink(&sb, "bad\ntag \"quoted\" \xff end")
	if err := sink.WriteBatch([]Event{{Type: EvMigration, Dir: DirPromote, N: 1}}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("stream has %d lines, want 2 (meta + event):\n%s", len(lines), sb.String())
	}
	var meta struct {
		Meta string `json:"meta"`
		Run  string `json:"run"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil {
		t.Fatalf("meta line does not parse: %v", err)
	}
	if want := string([]rune("bad\ntag \"quoted\" \xff end")); meta.Run != want {
		t.Errorf("run tag = %q, want %q", meta.Run, want)
	}
}
