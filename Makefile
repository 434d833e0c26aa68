GO ?= go

.PHONY: all build test fmt vet deadcode race check obs-parity scenario-smoke backend-parity \
	snapshot-parity fuzz-smoke fleet-smoke cli-smoke perfbench-test bench bench-all \
	perf-gate figures

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

# deadcode runs only the dead-code gate (deadcode_test.go): it fails on
# any production declaration that no CLI main, init, perfbench file,
# CheckInvariants method or interface method reaches, outside the
# test's allowlist. `test` runs it too.
deadcode:
	$(GO) test -run TestDeadCode .

# The runner, core, and fleet packages are the concurrency-bearing
# ones: the worker pool, futures, progress callbacks, per-epoch context
# checks, and the fleet's pooled host-stepping barrier and per-host
# event buffers all live there, so they get a dedicated race pass. vmm
# rides along since its scanner/index state is shared with the sweep
# jobs. The exp sweep tests cover the cell handoff (a cell's system is
# written on a pool goroutine and read after its future resolves) and
# the cancel-and-drain of a failed figure.
race:
	$(GO) test -race ./internal/runner ./internal/core ./internal/vmm/... ./internal/fleet
	$(GO) test -race -run 'Backend|Sweep' \
		./internal/memsim ./internal/exp

# obs-parity asserts the observability contract: the figure pipeline's
# stdout is byte-identical with and without metrics collection attached
# (CSV format, so no wall-clock lines differ). Figure 6 sweeps three
# modes through the runner, exercising the instrumented chokepoints.
# The second half re-asserts the same for two fleets (the fleet path
# wires per-host child handles, per-VM scopes, and event forwarding, a
# different plumbing route than the figure runner): the one-host churn
# script, and the 3-host fleet-churn script at 4 workers, whose hosts
# are built, booted, shut down and stepped as concurrent pool jobs.
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
	for leg in churn.json:1 fleet-churn.json:4; do \
		sc=$${leg%%:*}; args="-fleet $$sc -workers $${leg#*:} -format=csv"; \
		rm -f "$$tmp/sc-metrics.csv" "$$tmp/sc-events.jsonl"; \
		"$$tmp/heterosim" $$args > "$$tmp/sc-off.csv" || exit 1; \
		"$$tmp/heterosim" $$args \
			-metrics "$$tmp/sc-metrics.csv" -events "$$tmp/sc-events.jsonl" \
			> "$$tmp/sc-on.csv" 2>/dev/null || exit 1; \
		if ! cmp -s "$$tmp/sc-off.csv" "$$tmp/sc-on.csv"; then \
			echo "obs-parity: $$sc output differs with observability on:"; \
			diff "$$tmp/sc-off.csv" "$$tmp/sc-on.csv"; exit 1; \
		fi; \
		test -s "$$tmp/sc-metrics.csv" || { echo "obs-parity: $$sc wrote no metrics"; exit 1; }; \
		test -s "$$tmp/sc-events.jsonl" || { echo "obs-parity: $$sc wrote no events"; exit 1; }; \
		echo "obs-parity: $$sc at $${leg#*:} workers byte-identical with observability on"; \
	done

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
# invariant harness, replays the committed repro, and runs the seed
# corpora of the loader fuzzer and of the buddy, slab and page-cache
# restore fuzzers (~5s). A failing seed shrinks itself and lands in
# internal/fleet/testdata/fuzz/repros/.
fuzz-smoke:
	$(GO) test -run 'TestFuzzSmoke|TestCommittedRepro|FuzzParse' -count=1 ./internal/fleet
	$(GO) test -run 'FuzzRestore' -count=1 ./internal/guestos/buddy ./internal/guestos/slab ./internal/guestos/pagecache

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
# eviction order fails here too. The full (non-quick) figure11 golden
# pins the sweep the repository benchmark times (perfbench
# fig11-migration), so a speedup of the guest touch path that changes
# any of its numbers fails here.
backend-parity:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for f in f9:figure9 f6:figure6 f11:figure11 f13:figure13; do \
		$(GO) run ./cmd/heterobench -exp $${f#*:} -quick \
			-format=csv > "$$tmp/$${f%%:*}.csv" || exit 1; \
	done; \
	$(GO) run ./cmd/heterobench -exp figure11 -workers 2 \
		-format=csv > "$$tmp/f11full.csv" || exit 1; \
	for f in f9:figure9_quick f6:figure6_quick f11:figure11_quick f13:figure13_quick f11full:figure11; do \
		got="$$tmp/$${f%%:*}.csv"; want="testdata/backend/$${f#*:}.csv"; \
		if ! cmp -s "$$want" "$$got"; then \
			echo "backend-parity: analytic output drifted from $$want:"; \
			diff "$$want" "$$got"; exit 1; \
		fi; \
	done; \
	echo "backend-parity: analytic backend byte-identical to seed figures"

# check is the pre-commit gate: formatting, static analysis, full
# build, the full test suite (the dead-code gate included, so check
# needs no deadcode step), perfbench's own tests, the race detector
# over the concurrent packages, the observability no-perturbation check,
# the one-host script smoke run, the machine-model backend parity gate,
# the checkpoint/restore parity gate, the fuzz seed-band smoke run, the
# datacenter-scale fleet determinism smoke run, and the CLI smoke run.
check: fmt vet build test perfbench-test race obs-parity scenario-smoke \
	backend-parity snapshot-parity fuzz-smoke fleet-smoke cli-smoke

# bench runs the single-hot-path micro-benchmarks (ranking, scan,
# epoch pricing, allocator, a live-migration round trip, OpenMetrics
# encoding) at benchstat-grade repetition: save the output before and
# after a change and compare the two files with benchstat. End-to-end
# timing is perf-gate's job.
bench:
	$(GO) test -run=NONE -bench='HottestIn|ColdestIn|HotScan|ScanNext|EpochPricing|AllocatorFastPath|BuddyFrameChurn|LiveMigration|ObsOpenMetrics' \
		-benchmem -count=5 .

# bench-all smoke-runs every benchmark once, ablations included,
# trading statistical weight for coverage.
bench-all:
	$(GO) test -run=NONE -bench=. -benchtime=1x .

# perfbench-test runs the repository benchmark's own tests (its output
# is not perturbed by tracing, held-out seeds agree, metric names match
# BENCHMARK.json); perfbench is its own module, outside `go test ./...`.
perfbench-test:
	cd perfbench && $(GO) vet . && $(GO) test .

# perf-gate is the performance gate: it checks BASE (a commit) out into
# a temporary worktree and runs perfbench on every BENCHMARK.json
# workload, twice per side in the order base, head, head, base, where
# head is this checkout. scripts/perf_gate.py then fails the gate when a
# run is incorrect, when head fails a larger share of operations, or
# when an end-to-end metric of head is worse than base's by more than
# its BENCHMARK.json bound. Each side keeps its best value per metric.
# BASE defaults to HEAD, so a bare `make perf-gate` measures uncommitted
# changes against the last commit. Not part of check: it takes a few
# minutes.
BASE ?= HEAD
perf-gate:
	@tmp=$$(mktemp -d); \
	trap 'git worktree remove --force "$$tmp/base" 2>/dev/null; rm -rf "$$tmp"; git worktree prune' EXIT; \
	git worktree add -q --detach "$$tmp/base" "$(BASE)" || exit 1; \
	ws=$$(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))') || exit 1; \
	for w in $$ws; do \
		for side in base head head base; do \
			dir=.; test $$side = base && dir="$$tmp/base"; \
			echo "perf-gate: $$w on $$side"; \
			(cd "$$dir" && python3 perfbench/run.py --workload $$w --seed 7 --seconds 20 --trace 0) \
				> "$$tmp/out" || { cat "$$tmp/out"; echo "perf-gate: $$w on $$side failed to run"; exit 1; }; \
			tail -n 2 "$$tmp/out"; \
			echo "$$side $$w $$(tail -n 1 "$$tmp/out")" >> "$$tmp/results"; \
		done; \
	done; \
	python3 scripts/perf_gate.py BENCHMARK.json "$$tmp/results"

figures:
	$(GO) run ./cmd/heterobench -quick
