// Command heterotrace analyzes a JSONL event stream captured with
// `heterosim -events=FILE` (or any JSONLSink consumer) offline: it
// derives migration latency distributions per tier pair, per-VM
// FastMem residency timelines, fault-injection windows with recovery
// times, and balloon-refusal runs.
//
// Usage:
//
//	heterotrace run.jsonl                      # all reports as text
//	heterotrace -report migrations run.jsonl   # one report
//	heterotrace -format csv run.jsonl          # machine-readable tables
//	heterotrace -format json run.jsonl         # one JSON document
//	heterosim -fleet churn.json -events=/dev/stdout | heterotrace -
//	gzip run.jsonl && heterotrace run.jsonl.gz  # gzip input is sniffed
//
// The analyzer's per-VM migration page totals reconcile exactly with
// the run's reported VMResult promotions/demotions: a run writing
// -events records every event into its sink.
//
// Exit codes: 0 success, 2 usage or unreadable/unparseable input.
package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"heteroos/internal/metrics"
	"heteroos/internal/obs"
)

func main() {
	var (
		report  = flag.String("report", "all", "report: migrations, residency, faults, refusals, or all")
		format  = flag.String("format", "text", "output format: text, markdown, csv, or json")
		buckets = flag.Int("buckets", 20, "residency timeline buckets over the trace span")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: heterotrace [flags] FILE   (FILE '-' or absent reads stdin)\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	switch *report {
	case "migrations", "residency", "faults", "refusals", "all":
	default:
		fmt.Fprintf(os.Stderr, "heterotrace: unknown -report %q (want migrations, residency, faults, refusals, or all)\n", *report)
		os.Exit(2)
	}
	if *format != "json" && metrics.CheckFormat(*format) != nil {
		fmt.Fprintf(os.Stderr, "heterotrace: unknown -format %q (want text, markdown, csv, or json)\n", *format)
		os.Exit(2)
	}
	if *buckets < 1 {
		fmt.Fprintln(os.Stderr, "heterotrace: -buckets must be >= 1")
		os.Exit(2)
	}
	if flag.NArg() > 1 {
		flag.Usage()
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	name := "stdin"
	if flag.NArg() == 1 && flag.Arg(0) != "-" {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "heterotrace:", err)
			os.Exit(2)
		}
		defer f.Close()
		in, name = f, flag.Arg(0)
	}

	in, err := maybeGunzip(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "heterotrace: %s: %v\n", name, err)
		os.Exit(2)
	}
	tr, err := obs.ParseJSONL(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "heterotrace: %s: %v\n", name, err)
		os.Exit(2)
	}

	want := func(r string) bool { return *report == "all" || *report == r }

	if *format == "json" {
		emitJSON(tr, want, *buckets)
		return
	}

	if *format == "text" {
		run := tr.Run
		if run == "" {
			run = "(untagged)"
		}
		fmt.Printf("trace %s: run %s, %d events\n\n", name, run, len(tr.Events))
	}
	first := true
	emit := func(t *metrics.Table) {
		if !first {
			fmt.Println()
		}
		first = false
		t.RenderAs(os.Stdout, *format)
	}
	if want("migrations") {
		emit(obs.MigrationTable(tr.Migrations()))
		emit(totalsTable(tr))
	}
	if want("residency") {
		emit(obs.ResidencyTable(tr.Residency(*buckets)))
	}
	if want("faults") {
		emit(obs.FaultTable(tr.FaultWindows()))
	}
	if want("refusals") {
		emit(obs.RefusalTable(tr.RefusalRuns()))
	}
}

// maybeGunzip sniffs the stream's first two bytes and transparently
// decompresses gzip input (traces are routinely compressed for
// archival: `gzip run.jsonl; heterotrace run.jsonl.gz`). Detection is
// by the gzip magic, not the file name, so compressed stdin works too;
// anything else passes through untouched.
func maybeGunzip(in io.Reader) (io.Reader, error) {
	br := bufio.NewReader(in)
	magic, err := br.Peek(2)
	if err != nil {
		// Short or empty input: not gzip; let the JSONL parser report it.
		return br, nil
	}
	if magic[0] != 0x1f || magic[1] != 0x8b {
		return br, nil
	}
	zr, err := gzip.NewReader(br)
	if err != nil {
		return nil, fmt.Errorf("gzip input: %w", err)
	}
	return zr, nil
}

// totalsTable renders the per-VM migration page totals that reconcile
// with the run's VMResult counters.
func totalsTable(tr *obs.Trace) *metrics.Table {
	t := metrics.NewTable("Migration page totals by VM",
		"vm", "promoted", "demoted", "vmm_promoted", "vmm_demoted")
	t.Caption = "guest columns reconcile with VMResult.Promotions/Demotions, vmm columns sum to VMResult.VMMMigrations"
	byVM := tr.MigrationsByVM()
	vms := make([]int32, 0, len(byVM))
	for vm := range byVM {
		vms = append(vms, vm)
	}
	sort.Slice(vms, func(i, j int) bool { return vms[i] < vms[j] })
	for _, vm := range vms {
		tot := byVM[vm]
		t.AddRow(vm, tot.Promoted, tot.Demoted, tot.VMMPromoted, tot.VMMDemoted)
	}
	return t
}

// jsonTotals is the per-VM totals wire shape (JSON object keys must be
// strings, so the VM id moves into the row).
type jsonTotals struct {
	VM int32 `json:"vm"`
	obs.MigrationTotals
}

// emitJSON renders the selected reports as one JSON document.
func emitJSON(tr *obs.Trace, want func(string) bool, buckets int) {
	out := struct {
		Run        string                  `json:"run,omitempty"`
		Events     int                     `json:"events"`
		Migrations []obs.MigrationGroup    `json:"migrations,omitempty"`
		Totals     []jsonTotals            `json:"migration_totals,omitempty"`
		Residency  []obs.ResidencyTimeline `json:"residency,omitempty"`
		Faults     []obs.FaultWindow       `json:"fault_windows,omitempty"`
		Refusals   []obs.RefusalRun        `json:"refusal_runs,omitempty"`
	}{Run: tr.Run, Events: len(tr.Events)}
	if want("migrations") {
		out.Migrations = tr.Migrations()
		byVM := tr.MigrationsByVM()
		vms := make([]int32, 0, len(byVM))
		for vm := range byVM {
			vms = append(vms, vm)
		}
		sort.Slice(vms, func(i, j int) bool { return vms[i] < vms[j] })
		for _, vm := range vms {
			out.Totals = append(out.Totals, jsonTotals{VM: vm, MigrationTotals: byVM[vm]})
		}
	}
	if want("residency") {
		out.Residency = tr.Residency(buckets)
	}
	if want("faults") {
		out.Faults = tr.FaultWindows()
	}
	if want("refusals") {
		out.Refusals = tr.RefusalRuns()
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "heterotrace:", err)
		os.Exit(2)
	}
}
