package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heteroos/internal/core"
	"heteroos/internal/obs"
	"heteroos/internal/vmm"
)

// goldenVM is one VM's golden outcome: its result, shutdown round (-1
// if it stayed), and whether its workload completed.
type goldenVM struct {
	ID        vmm.VMID      `json:"id"`
	Shutdown  int           `json:"shutdown"`
	Completed bool          `json:"completed"`
	Res       core.VMResult `json:"result"`
}

// TestBundledGoldens pins bundled scripts' per-VM results to the
// goldens under testdata/golden. REGEN_GOLDEN=1 rewrites them.
func TestBundledGoldens(t *testing.T) {
	for _, name := range []string{"churn.json", "degrade.json", "fleet-churn.json"} {
		t.Run(name, func(t *testing.T) {
			sc, err := LoadBundled(name)
			if err != nil {
				t.Fatal(err)
			}
			r, err := Run(context.Background(), sc, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			var vms []goldenVM
			for _, v := range r.VMs {
				vms = append(vms, goldenVM{ID: v.ID, Shutdown: v.ShutdownRound, Completed: v.Completed, Res: v.Res})
			}
			got, err := json.MarshalIndent(vms, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden", strings.TrimSuffix(name, ".json")+".golden.json")
			if os.Getenv("REGEN_GOLDEN") == "1" {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("per-VM results drifted from %s", path)
			}
		})
	}
}

// TestGoldenDeterminism is the determinism contract's enforcement: the
// same script with the same seed must produce byte-identical results
// AND a byte-identical forwarded event stream, run to run.
func TestGoldenDeterminism(t *testing.T) {
	for _, name := range []string{"churn.json", "degrade.json", "fleet-churn.json"} {
		t.Run(name, func(t *testing.T) {
			res1, ev1 := runWithEvents(t, func(h *obs.Obs) (*Result, error) {
				return Run(context.Background(), bundled(t, name), Options{Workers: 1, Obs: h})
			})
			res2, ev2 := runWithEvents(t, func(h *obs.Obs) (*Result, error) {
				return Run(context.Background(), bundled(t, name), Options{Workers: 3, Obs: h})
			})
			if !bytes.Equal(res1, res2) {
				t.Errorf("results differ across identical runs:\n%s\nvs\n%s", res1, res2)
			}
			if !bytes.Equal(ev1, ev2) {
				t.Errorf("event streams differ across identical runs (%d vs %d bytes)", len(ev1), len(ev2))
			}
			if bytes.Count(ev1, []byte("\n")) < 2 {
				t.Error("no events captured")
			}
		})
	}
}
