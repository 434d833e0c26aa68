// Command benchjson converts `go test -bench` text output on stdin into
// a committed JSON baseline (the repo's BENCH_*.json perf trajectory).
//
// Usage:
//
//	go test -run=NONE -bench=. -benchmem -count=5 . > bench.txt
//	benchjson -label analytic -match 'Analytic$' < bench.txt > BENCH_analytic.json
//	benchjson -label obs -match 'ObsRollup' \
//	    -speedup ObsRollupDirect=ObsRollupMergeFold < bench.txt > BENCH_obs.json
//
// Repeated -count runs of one benchmark are kept as samples and
// summarised by their mean; -speedup NAME=BASELINE records the
// baseline-to-name throughput factor (both names must appear in the
// input, pre -match filtering, so a baseline can reference a benchmark
// it does not record from the same run).
//
// Guard mode compares fresh bench output against a committed baseline
// instead of emitting JSON:
//
//	go test -run=NONE -bench='ObsRollup' -count=3 . \
//	    | benchjson -guard BENCH_obs.json -tolerance 0.05
//
// It recomputes the baseline's recorded speedup pair from the fresh
// input and fails (exit 1) if the fresh factor regressed more than
// -tolerance below the committed one. The speedup ratio — not raw
// ns/op — is guarded because it cancels out machine speed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

type sample struct {
	Iters      int64   `json:"iters"`
	NsPerOp    float64 `json:"ns_per_op"`
	BytesPerOp float64 `json:"b_per_op"`
	AllocsOp   float64 `json:"allocs_per_op"`
}

type benchmark struct {
	Name        string   `json:"name"`
	Samples     []sample `json:"samples"`
	MeanNsPerOp float64  `json:"mean_ns_per_op"`
}

type speedup struct {
	Benchmark string  `json:"benchmark"`
	Baseline  string  `json:"baseline"`
	Factor    float64 `json:"factor"`
}

type baseline struct {
	Label      string      `json:"label"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []benchmark `json:"benchmarks"`
	Speedup    *speedup    `json:"speedup,omitempty"`
}

// benchLine matches "BenchmarkX-8  1000  123.4 ns/op  0 B/op  0 allocs/op"
// (the -benchmem columns are optional).
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op\s+([\d.]+) allocs/op)?`)

func main() {
	label := flag.String("label", "", "baseline label (e.g. the backend name)")
	match := flag.String("match", "", "regexp keeping only matching benchmark names")
	speedupF := flag.String("speedup", "", "NAME=BASELINE: record baseline/name mean-ns ratio")
	guardF := flag.String("guard", "", "committed baseline JSON: check the fresh input's speedup against it instead of emitting JSON")
	tolF := flag.Float64("tolerance", 0.05, "allowed fractional speedup regression in -guard mode")
	flag.Parse()

	keep := regexp.MustCompile(*match)
	out := baseline{Label: *label}
	means := map[string]float64{} // all parsed names, pre-filter
	byName := map[string]*benchmark{}
	var order []string

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "goos: "); ok {
			out.Goos = v
			continue
		}
		if v, ok := strings.CutPrefix(line, "goarch: "); ok {
			out.Goarch = v
			continue
		}
		if v, ok := strings.CutPrefix(line, "cpu: "); ok {
			out.CPU = v
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		s := sample{
			Iters:      mustInt(m[2]),
			NsPerOp:    mustFloat(m[3]),
			BytesPerOp: optFloat(m[4]),
			AllocsOp:   optFloat(m[5]),
		}
		if byName[name] == nil {
			byName[name] = &benchmark{Name: name}
			order = append(order, name)
		}
		byName[name].Samples = append(byName[name].Samples, s)
	}
	if err := sc.Err(); err != nil {
		die("read: %v", err)
	}

	for _, name := range order {
		b := byName[name]
		var sum float64
		for _, s := range b.Samples {
			sum += s.NsPerOp
		}
		b.MeanNsPerOp = round2(sum / float64(len(b.Samples)))
		means[name] = b.MeanNsPerOp
		if keep.MatchString(name) {
			out.Benchmarks = append(out.Benchmarks, *b)
		}
	}
	if *guardF != "" {
		guard(*guardF, *tolF, means)
		return
	}

	if len(out.Benchmarks) == 0 {
		die("no benchmarks matched %q", *match)
	}

	if *speedupF != "" {
		name, base, ok := strings.Cut(*speedupF, "=")
		if !ok {
			die("-speedup wants NAME=BASELINE, got %q", *speedupF)
		}
		nm, bm := means[name], means[base]
		if nm == 0 || bm == 0 {
			die("-speedup: %q or %q missing from input", name, base)
		}
		out.Speedup = &speedup{Benchmark: name, Baseline: base, Factor: round2(bm / nm)}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		die("encode: %v", err)
	}
}

// guard loads a committed baseline and re-derives its recorded speedup
// pair from the fresh means. Only the ratio is compared — raw ns/op
// varies with the machine running the check, but the ratio of two
// benchmarks from one run does not.
func guard(path string, tol float64, means map[string]float64) {
	data, err := os.ReadFile(path)
	if err != nil {
		die("guard: %v", err)
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		die("guard: parse %s: %v", path, err)
	}
	if base.Speedup == nil {
		die("guard: %s records no speedup to check against", path)
	}
	nm, bm := means[base.Speedup.Benchmark], means[base.Speedup.Baseline]
	if nm == 0 || bm == 0 {
		die("guard: fresh input is missing %q or %q", base.Speedup.Benchmark, base.Speedup.Baseline)
	}
	fresh := bm / nm
	floor := base.Speedup.Factor * (1 - tol)
	if fresh < floor {
		die("guard: %s speedup regressed: fresh %.2fx < floor %.2fx (committed %.2fx, tolerance %.0f%%)",
			base.Speedup.Benchmark, fresh, floor, base.Speedup.Factor, tol*100)
	}
	fmt.Fprintf(os.Stderr, "benchjson: guard ok: %s speedup %.2fx (committed %.2fx, floor %.2fx)\n",
		base.Speedup.Benchmark, fresh, base.Speedup.Factor, floor)
}

func mustInt(s string) int64 {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		die("bad int %q: %v", s, err)
	}
	return v
}

func mustFloat(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		die("bad float %q: %v", s, err)
	}
	return v
}

func optFloat(s string) float64 {
	if s == "" {
		return 0
	}
	return mustFloat(s)
}

func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}

func die(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
