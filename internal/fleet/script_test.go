package fleet

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heteroos/internal/memsim"
)

// validScript returns a minimal script that passes Validate; each case
// mutates one field to provoke one rejection.
func validScript() *Script {
	return &Script{
		Name: "v", Seed: 1, Hosts: 2, Rounds: 4, RoundEpochs: 2,
		Host: HostDesc{FastFrames: 8192, SlowFrames: 32768},
		VMs: []VMGroup{
			{App: "memlat", Mode: "HeteroOS-coordinated", FastPages: 4096, SlowPages: 16384},
		},
		Events: []Event{{At: 1, Kind: KindSurge, VM: 1, Factor: 2}},
	}
}

func TestScriptValidateAcceptsDefaults(t *testing.T) {
	sc := validScript()
	if err := sc.Validate(); err != nil {
		t.Fatalf("valid script rejected: %v", err)
	}
	if sc.share() != "static" || sc.placement() != PlacementFirstFit {
		t.Errorf("defaults: share=%q placement=%q", sc.share(), sc.placement())
	}
	if sc.TotalVMs() != 1 {
		t.Errorf("TotalVMs = %d, want 1", sc.TotalVMs())
	}
}

func TestScriptValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Script)
		want string
	}{
		{"no name", func(sc *Script) { sc.Name = "" }, "missing name"},
		{"no hosts", func(sc *Script) { sc.Hosts = 0 }, "at least 1 host"},
		{"no rounds", func(sc *Script) { sc.Rounds = 0 }, "rounds >= 1"},
		{"no host shape", func(sc *Script) { sc.Host.FastFrames = 0 }, "host shape"},
		{"bad share", func(sc *Script) { sc.Host.Share = "equal" }, "share policy"},
		{"bad placement", func(sc *Script) { sc.Placement = "spread" }, "placement policy"},
		{"bad mode", func(sc *Script) { sc.VMs[0].Mode = "nope" }, "nope"},
		{"bad app", func(sc *Script) { sc.VMs[0].App = "nope" }, "nope"},
		{"zero span", func(sc *Script) { sc.VMs[0].FastPages, sc.VMs[0].SlowPages = 0, 0 }, "zero-page span"},
		{"oversized span", func(sc *Script) { sc.VMs[0].FastPages = 9000 }, "exceeds the host shape"},
		{"negative count", func(sc *Script) { sc.VMs[0].Count = -1 }, "negative count"},
		{"event out of range", func(sc *Script) { sc.Events[0].At = 4 }, "outside"},
		{"boot without group", func(sc *Script) { sc.Events[0] = Event{At: 1, Kind: KindBoot} }, "no VM group"},
		{"surge without target", func(sc *Script) { sc.Events[0].VM = 0 }, "exactly one of vm or count"},
		{"surge with both targets", func(sc *Script) { sc.Events[0].Count = 2 }, "exactly one of vm or count"},
		{"surge of unbooted vm", func(sc *Script) { sc.Events[0].VM = 9 }, "only boots 1"},
		{"negative factor", func(sc *Script) { sc.Events[0].Factor = -1 }, "negative factor"},
		{"host-fail out of range", func(sc *Script) { sc.Events[0] = Event{At: 1, Kind: KindHostFail, Host: 2} }, "host-fail"},
		{"host failed twice", func(sc *Script) {
			sc.Events = []Event{{At: 1, Kind: KindHostFail, Host: 1}, {At: 2, Kind: KindHostFail, Host: 1}}
		}, "a second time"},
		{"throttle-shift without throttle", func(sc *Script) { sc.Events[0] = Event{At: 1, Kind: KindThrottleShift} }, "needs a throttle"},
		{"zero slow throttle", func(sc *Script) { sc.Host.SlowThrottle = &memsim.Throttle{L: 2} }, "factors >= 1"},
		{"stall without target", func(sc *Script) { sc.Events[0] = Event{At: 1, Kind: KindMigrationStall, Duration: 2} }, "exactly one of vm or count"},
		{"negative refusal window", func(sc *Script) { sc.Events[0] = Event{At: 1, Kind: KindBalloonRefusal, VM: 1, Duration: -1} }, "negative"},
		{"checkpoint without path", func(sc *Script) { sc.Events[0] = Event{At: 1, Kind: KindCheckpoint} }, "no path"},
		{"unknown kind", func(sc *Script) { sc.Events[0].Kind = "reboot" }, "unknown kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := validScript()
			tc.mut(sc)
			err := sc.Validate()
			if err == nil {
				t.Fatal("Validate accepted a bad script")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestParseRejectsUnknownFields: a misspelled key or a field the
// script no longer has must fail the parse rather than be dropped,
// which would silently run a different script.
func TestParseRejectsUnknownFields(t *testing.T) {
	valid, err := json.Marshal(validScript())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(valid); err != nil {
		t.Fatalf("valid script rejected: %v", err)
	}
	cases := []struct{ name, from, to, field string }{
		{"misspelled round_epochs", `"round_epochs":`, `"round_epoch":`, "round_epoch"},
		{"host backend", `"slow_frames":32768`, `"slow_frames":32768,"backend":"analytic"`, "backend"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := strings.Replace(string(valid), tc.from, tc.to, 1)
			if data == string(valid) {
				t.Fatalf("%q not found in %s", tc.from, valid)
			}
			_, err := Parse([]byte(data))
			if err == nil {
				t.Fatalf("Parse accepted %s", data)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Errorf("error %q does not name the field %q", err, tc.field)
			}
		})
	}
	if _, err := Parse(append(valid, []byte(" {}")...)); err == nil {
		t.Error("Parse accepted trailing data")
	}
}

func TestBundledScriptsParse(t *testing.T) {
	names := Bundled()
	if len(names) < 2 {
		t.Fatalf("expected at least 2 bundled scripts, have %v", names)
	}
	for _, name := range names {
		sc, err := LoadBundled(name)
		if err != nil {
			t.Errorf("LoadBundled(%q): %v", name, err)
			continue
		}
		if sc.TotalVMs() == 0 {
			t.Errorf("%q boots no VMs", name)
		}
	}
	if _, err := LoadBundled("nonexistent.json"); err == nil {
		t.Error("loading a nonexistent bundled script succeeded")
	}
	sc, err := LoadBundled("fleet-churn-1k.json")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Hosts != 1000 || sc.TotalVMs() != 10000 {
		t.Errorf("1k script: hosts=%d vms=%d, want 1000 hosts / 10000 VMs", sc.Hosts, sc.TotalVMs())
	}
}

func TestLoadFileFallsBackToBundled(t *testing.T) {
	sc, err := LoadFile("no/such/dir/fleet-churn.json")
	if err != nil {
		t.Fatalf("LoadFile should fall back to the bundled script: %v", err)
	}
	if sc.Name != "fleet-churn" {
		t.Errorf("loaded %q", sc.Name)
	}
	if _, err := LoadFile("definitely-missing.json"); err == nil {
		t.Error("a path matching no file and no bundled script should error")
	}
}

// TestLoadFile pins the fallback contract: only a path that does not
// exist may fall back to the bundled script of the same base name;
// every other failure — unparseable JSON, unreadable path — must
// surface as a real error even when a bundled name matches.
func TestLoadFile(t *testing.T) {
	dir := t.TempDir()

	// Present but invalid JSON: a parse error, never the bundled copy.
	bad := filepath.Join(dir, "churn.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(bad); err == nil {
		t.Error("invalid JSON masked by the bundled fallback")
	}

	// Missing file with a non-bundled base name: plain not-exist error.
	if _, err := LoadFile(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("loading a missing, non-bundled script succeeded")
	} else if !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file error lost its not-exist cause: %v", err)
	}

	// A directory named like a bundled script: reading it fails with
	// something other than not-exist, so no fallback — the caller gets
	// the real error.
	dirPath := filepath.Join(dir, "degrade.json")
	if err := os.Mkdir(dirPath, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(dirPath); err == nil {
		t.Error("directory path masked by the bundled fallback")
	} else if errors.Is(err, fs.ErrNotExist) {
		t.Errorf("directory read reported not-exist: %v", err)
	}
}
