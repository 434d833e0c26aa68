package exp

import (
	"context"
	"testing"

	"heteroos/internal/memsim"
	"heteroos/internal/metrics"
)

// gainTable runs the Figure 9 shape (quick apps, two capacity ratios)
// under the given backend builder; nil means the default path (no
// NewBackend hook, core builds analytic).
func gainTable(t *testing.T, build memsim.Builder) *metrics.Table {
	t.Helper()
	o := Options{Quick: true, Seed: 1}
	if build != nil {
		o.NewBackend = func(string, uint64) memsim.Builder { return build }
	}
	res, err := gainSweep(context.Background(), o, "figure9", "backend-shape", figure9Modes(), []int{2, 8})
	if err != nil {
		t.Fatalf("gainSweep: %v", err)
	}
	return res.Table
}

// The default backend path (Config.Backend nil) must be byte-identical
// to explicitly selecting analytic through the NewBackend hook.
func TestGainSweepDefaultBackendIsAnalytic(t *testing.T) {
	def := gainTable(t, nil)
	ana := gainTable(t, memsim.AnalyticBackend)
	if def.String() != ana.String() {
		t.Fatalf("explicit analytic differs from default:\ndefault:\n%s\nanalytic:\n%s", def, ana)
	}
}
