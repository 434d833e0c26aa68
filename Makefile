GO ?= go

.PHONY: all build test fmt vet race check obs-parity scenario-smoke backend-parity \
	snapshot-parity fuzz-smoke fleet-smoke cli-smoke bench bench-all bench-json bench-guard figures

all: check

build:
	$(GO) build ./...

# fmt fails when any Go file is not gofmt-formatted, listing the files.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "fmt: files need gofmt:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The runner, core, and fleet packages are the concurrency-bearing
# ones: the worker pool, futures, progress callbacks, per-epoch context
# checks, and the fleet's pooled host-stepping barrier and per-host
# event buffers all live there, so they get a dedicated race pass. vmm
# rides along since its scanner/index state is shared with the sweep
# jobs.
race:
	$(GO) test -race ./internal/runner ./internal/core ./internal/vmm/... ./internal/fleet
	$(GO) test -race -run 'Backend|GainSweep' \
		./internal/memsim ./internal/exp

# obs-parity asserts the observability contract: the figure pipeline's
# stdout is byte-identical with and without metrics collection attached
# (CSV format, so no wall-clock lines differ). Figure 6 sweeps three
# modes through the runner, exercising the instrumented chokepoints.
# The second half re-asserts the same for the one-host churn fleet (the
# fleet path wires per-host child handles, per-VM scopes, and event
# forwarding, a different plumbing route than the figure runner).
obs-parity:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/heterobench -exp figure6 -quick -format=csv \
		> "$$tmp/off.csv" || exit 1; \
	$(GO) run ./cmd/heterobench -exp figure6 -quick -format=csv \
		-metrics "$$tmp/metrics.csv" > "$$tmp/on.csv" || exit 1; \
	if ! cmp -s "$$tmp/off.csv" "$$tmp/on.csv"; then \
		echo "obs-parity: figure output differs with metrics enabled:"; \
		diff "$$tmp/off.csv" "$$tmp/on.csv"; exit 1; \
	fi; \
	test -s "$$tmp/metrics.csv" || { echo "obs-parity: no metrics written"; exit 1; }; \
	echo "obs-parity: figure output byte-identical with observability on"; \
	$(GO) build -o "$$tmp/heterosim" ./cmd/heterosim || exit 1; \
	"$$tmp/heterosim" -fleet churn.json -format=csv \
		> "$$tmp/sc-off.csv" || exit 1; \
	"$$tmp/heterosim" -fleet churn.json -format=csv \
		-metrics "$$tmp/sc-metrics.csv" -events "$$tmp/sc-events.jsonl" \
		> "$$tmp/sc-on.csv" 2>/dev/null || exit 1; \
	if ! cmp -s "$$tmp/sc-off.csv" "$$tmp/sc-on.csv"; then \
		echo "obs-parity: churn output differs with observability on:"; \
		diff "$$tmp/sc-off.csv" "$$tmp/sc-on.csv"; exit 1; \
	fi; \
	test -s "$$tmp/sc-metrics.csv" || { echo "obs-parity: churn wrote no metrics"; exit 1; }; \
	echo "obs-parity: churn fleet byte-identical with observability on"

# scenario-smoke runs the bundled one-host scripts end-to-end through
# the CLI and checks determinism: two runs of the same script must print
# byte-identical output (the churn run also exercises BootVM/ShutdownVM
# and the per-departure invariant sweep). Per-VM results are pinned to
# the parent goldens by the fleet package's TestBundledGoldens.
scenario-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for sc in churn.json degrade.json; do \
		$(GO) run ./cmd/heterosim -fleet $$sc -format=csv > "$$tmp/a.csv" || exit 1; \
		$(GO) run ./cmd/heterosim -fleet $$sc -format=csv > "$$tmp/b.csv" || exit 1; \
		if ! cmp -s "$$tmp/a.csv" "$$tmp/b.csv"; then \
			echo "scenario-smoke: $$sc output differs between identical runs:"; \
			diff "$$tmp/a.csv" "$$tmp/b.csv"; exit 1; \
		fi; \
		echo "scenario-smoke: $$sc deterministic"; \
	done

# snapshot-parity is the checkpoint/restore gold standard, exercised
# end-to-end through the CLI: both one-host scripts, plus the 3-host
# fleet-churn script checkpointed after its round-3 host failure (a
# failed host, evacuated VMs). Each leg is script:checkpoint-every.
# (1) Writing checkpoints must not perturb the run (stdout with
# -checkpoint-every == stdout without); (2) a run restored from the
# latest checkpoint must finish byte-identically (stdout == the
# uninterrupted run, and the restored event log == the tail of the full
# run's event log).
snapshot-parity:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/heterosim" ./cmd/heterosim || exit 1; \
	for leg in churn.json:13 degrade.json:13 fleet-churn.json:4; do \
		sc=$${leg%%:*}; every=$${leg#*:}; \
		args="-fleet $$sc -format=csv"; \
		"$$tmp/heterosim" $$args -events "$$tmp/full.jsonl" > "$$tmp/plain.csv" || exit 1; \
		"$$tmp/heterosim" $$args -checkpoint-every $$every \
			-checkpoint-path "$$tmp/ck.snap" > "$$tmp/ck.csv" || exit 1; \
		if ! cmp -s "$$tmp/plain.csv" "$$tmp/ck.csv"; then \
			echo "snapshot-parity: $$leg output perturbed by checkpointing:"; \
			diff "$$tmp/plain.csv" "$$tmp/ck.csv"; exit 1; \
		fi; \
		"$$tmp/heterosim" -restore "$$tmp/ck.snap" -format=csv -events "$$tmp/rest.jsonl" \
			> "$$tmp/rest.csv" || exit 1; \
		if ! cmp -s "$$tmp/plain.csv" "$$tmp/rest.csv"; then \
			echo "snapshot-parity: $$leg restored run diverged:"; \
			diff "$$tmp/plain.csv" "$$tmp/rest.csv"; exit 1; \
		fi; \
		tail -n +2 "$$tmp/rest.jsonl" > "$$tmp/rest.tail"; \
		n=$$(wc -l < "$$tmp/rest.tail"); \
		test "$$n" -gt 0 || { echo "snapshot-parity: $$leg restore replayed no events (checkpoint at end of run?)"; exit 1; }; \
		tail -n "$$n" "$$tmp/full.jsonl" > "$$tmp/full.tail"; \
		if ! cmp -s "$$tmp/full.tail" "$$tmp/rest.tail"; then \
			echo "snapshot-parity: $$leg restored event log diverged:"; \
			diff "$$tmp/full.tail" "$$tmp/rest.tail"; exit 1; \
		fi; \
		rm -f "$$tmp"/ck.snap "$$tmp"/*.jsonl "$$tmp"/*.tail; \
		echo "snapshot-parity: $$leg restore byte-identical ($$n event lines)"; \
	done

# fuzz-smoke drives the fixed seed band through the fleet script
# generator (1-3 hosts, host failures included) under the strict
# invariant harness, replays the committed repro, and runs the loader
# fuzzer's seed corpus (~5s). A failing seed shrinks itself and lands
# in internal/fleet/testdata/fuzz/repros/.
fuzz-smoke:
	$(GO) test -run 'TestFuzzSmoke|TestCommittedRepro|FuzzParse' -count=1 ./internal/fleet

# fleet-smoke runs the 1000-host / 10000-VM churn script end-to-end
# through the CLI at two worker counts and requires both outputs to be
# byte-identical to the committed golden testdata/fleet/fleet-churn-1k.csv
# — the fleet layer's determinism contract at datacenter scale (boot
# storms, a surge wave, three host failures with mass evacuation, and a
# 500-VM drain). Comparing against the
# golden, not just across worker counts, also catches a change that is
# wrong the same way at both counts.
fleet-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/heterosim" ./cmd/heterosim || exit 1; \
	want=testdata/fleet/fleet-churn-1k.csv; \
	for w in 1 4; do \
		"$$tmp/heterosim" -fleet fleet-churn-1k.json -workers $$w -format=csv \
			> "$$tmp/w$$w.csv" || exit 1; \
		if ! cmp -s "$$want" "$$tmp/w$$w.csv"; then \
			echo "fleet-smoke: 1k-host fleet output at $$w workers drifted from $$want:"; \
			diff "$$want" "$$tmp/w$$w.csv" | head -20; exit 1; \
		fi; \
	done; \
	echo "fleet-smoke: fleet-churn-1k byte-identical to $$want at 1 and 4 workers"

# cli-smoke drives the three CLIs' shared surfaces from built binaries
# (`go run` reports every non-zero exit as 1): each must reject an
# unknown -format with exit 2, and both simulators must write non-empty
# CPU and heap profiles through -cpuprofile/-memprofile.
cli-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for c in heterosim heterobench heterotrace; do \
		$(GO) build -o "$$tmp/$$c" ./cmd/$$c || exit 1; \
		"$$tmp/$$c" -format=bogus < /dev/null > /dev/null 2>&1; rc=$$?; \
		test "$$rc" -eq 2 || { echo "cli-smoke: $$c -format=bogus exited $$rc, want 2"; exit 1; }; \
	done; \
	"$$tmp/heterosim" -app Redis -mode HeteroOS-coordinated \
		-cpuprofile "$$tmp/sim.cpu" -memprofile "$$tmp/sim.mem" > /dev/null || exit 1; \
	"$$tmp/heterobench" -exp table1 \
		-cpuprofile "$$tmp/bench.cpu" -memprofile "$$tmp/bench.mem" > /dev/null || exit 1; \
	for f in sim.cpu sim.mem bench.cpu bench.mem; do \
		test -s "$$tmp/$$f" || { echo "cli-smoke: profile $$f missing or empty"; exit 1; }; \
	done; \
	echo "cli-smoke: -format=bogus exits 2 in every CLI; both simulators write profiles"

# backend-parity pins the machine model to the seed: the analytic
# backend must reproduce the committed figure CSVs byte-for-byte.
# The figure9/figure6 goldens under testdata/backend/ were captured from
# the pre-backend seed tree, so any pricing drift — in the engine or in
# the backend plumbing around it — fails the gate. The figure11 and
# figure13 goldens pin the reclaim-heavy figures (HeteroOS-LRU and the
# coordinated/DRF sweeps), so a guest reclaim or LRU change that alters
# eviction order fails here too.
backend-parity:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for f in f9:figure9 f6:figure6 f11:figure11 f13:figure13; do \
		$(GO) run ./cmd/heterobench -exp $${f#*:} -quick \
			-format=csv > "$$tmp/$${f%%:*}.csv" || exit 1; \
	done; \
	for f in f9:figure9_quick f6:figure6_quick f11:figure11_quick f13:figure13_quick; do \
		got="$$tmp/$${f%%:*}.csv"; want="testdata/backend/$${f#*:}.csv"; \
		if ! cmp -s "$$want" "$$got"; then \
			echo "backend-parity: analytic output drifted from $$want:"; \
			diff "$$want" "$$got"; exit 1; \
		fi; \
	done; \
	echo "backend-parity: analytic backend byte-identical to seed figures"

# check is the pre-commit gate: formatting, static analysis, full
# build, the full test suite, the race detector over the concurrent
# packages, the observability no-perturbation check, the one-host
# script smoke run, the machine-model backend parity gate, the
# checkpoint/restore parity gate, the fuzz seed-band smoke run, the
# datacenter-scale fleet determinism smoke run, and the CLI smoke run.
check: fmt vet build test race obs-parity scenario-smoke backend-parity \
	snapshot-parity fuzz-smoke fleet-smoke cli-smoke

# bench runs the ranking, scan, and figure9-sweep benchmarks at
# benchstat-grade repetition: save the output before and after a change
# and compare the two files with benchstat.
bench:
	$(GO) test -run=NONE -bench='HottestIn|ColdestIn|HotScan|ScanNext|SweepFigure9|EpochPricing|Obs|FleetEpochRound' \
		-benchmem -count=5 .

# bench-json regenerates the committed perf-trajectory baselines: the
# ranking, scan and pricing benchmarks and the figure9 sweep into
# BENCH_analytic.json, the observability aggregation path
# (direct scope rollup, its speedup over the snapshot merge fold, and
# the OpenMetrics encoder) into BENCH_obs.json, and the fleet epoch
# round (pooled barrier over its serial twin) into BENCH_fleet.json.
bench-json:
	@tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) test -run=NONE -bench='HottestIn|ColdestIn|HotScan|SweepFigure9|EpochPricing|Obs|FleetEpochRound' \
		-benchmem -count=5 . > "$$tmp" || { cat "$$tmp"; exit 1; }; \
	$(GO) run ./cmd/benchjson -label analytic \
		-match 'HottestIn|ColdestIn|HotScan|SweepFigure9Workers|EpochPricingAnalytic' \
		< "$$tmp" > BENCH_analytic.json || exit 1; \
	$(GO) run ./cmd/benchjson -label obs \
		-match 'ObsRollup|ObsOpenMetrics' \
		-speedup ObsRollupDirect=ObsRollupMergeFold \
		< "$$tmp" > BENCH_obs.json || exit 1; \
	$(GO) run ./cmd/benchjson -label fleet \
		-match 'FleetEpochRound' \
		-speedup FleetEpochRound=FleetEpochRoundWorkers1 \
		< "$$tmp" > BENCH_fleet.json || exit 1; \
	echo "bench-json: wrote BENCH_analytic.json BENCH_obs.json BENCH_fleet.json"

# bench-guard re-runs the speedup-pair benchmarks and fails if any
# committed factor regressed more than 5%: direct-over-merge-fold scope
# rollup (BENCH_obs.json) and pooled-over-serial fleet rounds
# (BENCH_fleet.json). The ratio (not raw ns/op) is guarded, so the check
# is stable across machines. Not part of check: benchmarks are too noisy
# for an always-on gate.
bench-guard:
	@$(GO) test -run=NONE -bench='ObsRollup' -benchmem -count=3 . \
		| $(GO) run ./cmd/benchjson -guard BENCH_obs.json -tolerance 0.05
	@$(GO) test -run=NONE -bench='FleetEpochRound' -benchmem -count=3 . \
		| $(GO) run ./cmd/benchjson -guard BENCH_fleet.json -tolerance 0.05

# bench-all smoke-runs every benchmark once (artifact regeneration
# included), trading statistical weight for coverage.
bench-all:
	$(GO) test -run=NONE -bench=. -benchtime=1x .

figures:
	$(GO) run ./cmd/heterobench -quick
