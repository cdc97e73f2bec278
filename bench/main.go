// Command bench is the repository's benchmark: it boots in-process
// forestviewd topologies over a paper-scale synthetic compendium, drives
// four named workloads through real loopback HTTP, verifies the answers
// and prints every metric by name with its unit. See README.md.
//
//	bash bench/run.sh --workload search-cold --seed 1 --seconds 16 --trace 0
//	bash bench/run.sh -seed 1            # all four workloads, end to end
//	bash bench/run.sh -seed 1 -trace 1   # per-layer metrics + trace-<workload>.jsonl
//	bash bench/run.sh -noise             # run everything twice, compare to the bounds
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code made testable.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Int64("seed", 1, "plan seed: the same seed gives the same requests")
		names    = fs.String("workload", "", "workload name[,name] (default: all four)")
		seconds  = fs.Float64("seconds", defaultSeconds, "measured seconds per workload, half solo (cruise when tracing) and half sat")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and trace-<workload>.jsonl")
		outDir   = fs.String("out", filepath.Join(".bench_build", "out"), "directory for trace files")
		noiseRun = fs.Bool("noise", false, "run the selected workloads twice on the same seed and compare the two to the bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintln(stderr, "bench: usage: [-workload name[,name]] [-seed n] [-seconds s] [-trace 0|1] [-out dir] [-noise]")
		return 2
	}
	var selected []*workload
	if *names == "" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	}
	for _, name := range strings.Split(*names, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		w := findWorkload(name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", name)
			return 2
		}
		selected = append(selected, w)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir, log: stdout, scale: paperScale}
	printHeader(stdout, cfg)

	ctx := context.Background()
	if *noiseRun {
		return noise(ctx, selected, cfg, stdout, stderr)
	}
	var results []*result
	for _, w := range selected {
		fmt.Fprintf(stdout, "\n== %s ==\n", w.name)
		res, err := runWorkload(ctx, w, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		printResult(stdout, res, cfg.trace)
		results = append(results, res)
	}
	// The machine-readable block: one JSON object per workload, in order,
	// the last line of output being the last (or only) workload's.
	fmt.Fprintln(stdout)
	bw := bufio.NewWriter(stdout)
	for _, res := range results {
		if err := writeResultJSON(bw, res, cfg.trace); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if err := bw.Flush(); err != nil {
		return 1
	}
	return 0
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 16

func modeMetrics(trace bool) []metric {
	if trace {
		return perLayer
	}
	return endToEnd
}

// printHeader stamps what a number needs to be compared with another:
// commit, machine, runtime, seed, and the frozen load model.
func printHeader(w io.Writer, cfg runConfig) {
	fmt.Fprintf(w, "forestview bench: commit %s, cpu %q, nproc %d, GOMAXPROCS %d, %s, seed %d, %gs measured per workload, trace %t\n",
		gitCommit(), cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "load model: %d connections, SLO %g ms, cruise rates", connections(), sloMS)
	for _, wl := range workloads {
		fmt.Fprintf(w, " %s=%g/s", wl.name, wl.cruise)
	}
	fmt.Fprintln(w)
}

func printResult(w io.Writer, res *result, trace bool) {
	fmt.Fprintf(w, "%s: attempted %d, failed %d\n", res.workload, res.attempted, res.failed)
	for _, why := range res.wrong {
		fmt.Fprintf(w, "  failed: %s\n", why)
	}
	for _, m := range modeMetrics(trace) {
		if m.bound > 0 {
			fmt.Fprintf(w, "  %-32s %14.6g %-6s (%s is better, bound %g)\n", m.name, res.metrics[m.name], m.unit, m.better, m.bound)
		} else {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", m.name, res.metrics[m.name], m.unit)
		}
	}
}

// writeResultJSON writes the contract's result line: correct, attempted,
// failed and every metric of the mode with its unit.
func writeResultJSON(w io.Writer, res *result, trace bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	for _, m := range modeMetrics(trace) {
		line.Metrics[m.name] = value{res.metrics[m.name], m.unit}
	}
	return json.NewEncoder(w).Encode(line)
}

// gitCommit reads HEAD from .git without running git; "unknown" outside a
// work tree (the driver's checkout is not a repository).
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return short(ref)
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return short(strings.TrimSpace(string(b)))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return short(hash)
			}
		}
	}
	return "unknown"
}

func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
