// Command bench is the repository's one end-to-end benchmark: it builds a
// seeded versioned dataset, serves it through internal/server on a loopback
// listener in this process, drives it with closed-loop clients, checks every
// answer against its own oracle, and prints the metrics BENCHMARK.json names.
// See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// defaultScale is the share of the full-size sci dataset (40 000 rows per
// version) that fits the benchmark contract's time cap of 92 runs, each with
// its repeated set-up, in 3420 s. README.md has the sizes it gives.
const defaultScale = 0.025

// maxClients is the number of sci's work-branch pairs: each client writes to
// lineages of its own, so there cannot be more clients than pairs.
const maxClients = workBranches / 2

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "all", "checkout_mem, checkout_disk, commit_wal, mixed, or all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1: the single-client traced run and the per-layer metrics; 0: the timed run and the end-to-end metrics")
	scale := flag.Float64("scale", defaultScale, "share of the full-size dataset's rows per version")
	clients := flag.Int("clients", min(runtime.GOMAXPROCS(0), maxClients), "closed-loop clients, one per processor up to 4")
	out := flag.String("out", filepath.Join(".bench_build", "out"), "directory for results.json and trace-<workload>.jsonl")
	repeat := flag.Int("repeat", 0, "run each selected workload this many times, seeds seed..seed+N-1, in child processes, and print each end-to-end metric's median and spread")
	compare := flag.Bool("compare", false, "with -repeat: do it twice and fail if a spread or the difference of the two medians breaches the metric's bound in BENCHMARK.json")
	flag.Parse()

	var selected []*spec
	if *workload == "all" {
		selected = specs
	} else if sp := specByName(*workload); sp != nil {
		selected = []*spec{sp}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	if *clients < 1 || *clients > maxClients || *seconds <= 0 || *scale <= 0 {
		fmt.Fprintf(os.Stderr, "bench: -seconds and -scale must be positive, -clients between 1 and %d\n", maxClients)
		return 2
	}
	if *repeat > 0 {
		return repeatRuns(selected, *seed, *seconds, *scale, *clients, *repeat, *compare)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	// With one workload selected, -trace picks the run; with all of them,
	// both runs happen so one command prints every metric.
	traces := []bool{*trace == 1}
	if *workload == "all" {
		traces = []bool{false, true}
	}
	code := 0
	var reports []*report
	for _, sp := range selected {
		for _, traced := range traces {
			rep, err := runOne(runConfig{sp: sp, seed: *seed, scale: *scale, seconds: *seconds, clients: *clients, setups: 3, out: *out}, traced)
			if err != nil {
				// No result line: the driver must not take a failed run's
				// partial numbers for measurements.
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
				return 2
			}
			reports = append(reports, rep)
			printReport(rep)
			if !rep.Correct {
				code = 1
			}
		}
	}
	if err := writeJSON(filepath.Join(*out, "results.json"), reports); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	printResultLine(reports[len(reports)-1])
	return code
}

// runOne gives the run a scratch directory inside the checkout and removes
// it afterwards.
func runOne(cfg runConfig, traced bool) (*report, error) {
	data := filepath.Join(".bench_build", "data")
	if err := os.MkdirAll(data, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(data, cfg.sp.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	cfg.work = work
	if traced {
		return runTraced(cfg)
	}
	return runTimed(cfg)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func printReport(r *report) {
	kind := "timed run, end-to-end metrics"
	if r.Traced {
		kind = "traced run, per-layer metrics"
	}
	fmt.Printf("\n== %s (%s) seed=%d scale=%g clients=%d seconds=%g\n", r.Workload, kind, r.Seed, r.Scale, r.Clients, r.Seconds)
	fmt.Print("sizes:")
	for _, k := range sortedKeys(r.Sizes) {
		fmt.Printf(" %s=%d", k, r.Sizes[k])
	}
	fmt.Println()
	for _, k := range sortedKeys(r.Metrics) {
		m := r.Metrics[k]
		fmt.Printf("  %-40s %14.4f %s\n", k, m.Value, m.Unit)
	}
	for _, k := range sortedKeys(r.Samples) {
		s := r.Samples[k]
		fmt.Printf("  samples %-24s n=%-6d q1=%.4f median=%.4f q3=%.4f\n", k, s.N, s.Q1, s.Median, s.Q3)
	}
	for _, u := range r.Unsupported {
		fmt.Printf("  note: %s has fewer than ten samples beyond it in this run\n", u)
	}
	fmt.Printf("attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, f := range r.Failures {
		fmt.Printf("  failure: %s\n", f)
	}
}

// printResultLine prints the line the driver reads: the last one.
func printResultLine(r *report) {
	b, _ := json.Marshal(struct { // plain numbers and strings cannot fail to marshal
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Println(string(b))
}
