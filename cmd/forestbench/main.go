// Command forestbench runs the fleet gates: seconds-scale open-loop loads
// pushed through in-process forestviewd topologies (single daemon,
// coordinator + shards, replicated fleet), each folded into a pass/fail
// verdict. It measures nothing for the record — latency, capacity and
// every other committed number belong to bench/ (see bench/README.md).
//
// The generator is open-loop — arrivals are scheduled by a Poisson clock
// at the offered rate before the first request is sent — so a saturated
// server shows up as growing scheduled-relative latency, not as a quietly
// reduced load (the coordinated-omission trap of closed-loop drivers).
//
// Usage:
//
//	# every endpoint of every topology answers under load, no 5xx
//	forestbench -profile=smoke -topology all
//
//	# the prefetcher stays ahead of a correlated pan/zoom walk
//	forestbench -profile=panwalk
//
//	# the replicated fleet absorbs injected faults without degrading
//	forestbench -chaos
//
// Each gate writes <out>-<label>.jsonl (one envelope per request) and
// <out>-<label>-report.txt; the two remaining fleet gates, shard kill and
// rolling restart, are the package's E2E tests.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"forestview/internal/workload"
)

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// gateRun is one invocation's settings, shared by every gate.
type gateRun struct {
	rate     float64
	stepDur  time.Duration
	seed     int64
	out      string
	maxP99MS float64
	stdout   io.Writer
}

// runMain is main with its environment injected, so E2E tests run the
// real CLI in-process.
func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("forestbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	g := gateRun{stdout: stdout}
	var (
		profile = fs.String("profile", "", `"smoke": seconds-scale run against in-process topologies; "panwalk": correlated pan/zoom walk with the speculative prefetcher off vs on`)
		chaos   = fs.Bool("chaos", false, "run the chaos gate: the replicated fleet under deterministic fault injection must stay 5xx-free and non-degraded")
		topo    = fs.String("topology", "both", `smoke topology: "single", "shard2" (coordinator + 2 shards, R=1), "shard4" (coordinator + 4 shards, R=2), "both" (single+shard2) or "all"`)
	)
	fs.Float64Var(&g.rate, "rate", 40, "base rate, req/s (smoke and chaos run it at 1x, then 2x)")
	fs.DurationVar(&g.stepDur, "step-duration", 1200*time.Millisecond, "duration of each run")
	fs.Int64Var(&g.seed, "seed", 1, "workload seed (and the chaos injection schedule's seed)")
	fs.StringVar(&g.out, "out", "forestbench-smoke", "artifact prefix (<out>-<label>.jsonl, <out>-<label>-report.txt)")
	fs.Float64Var(&g.maxP99MS, "max-p99", 2000, "fail if overall p99 latency exceeds this many ms")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	type namedGate struct {
		name string
		run  func() error
	}
	var gates []namedGate
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "forestbench: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	case *chaos:
		gates = append(gates, namedGate{"chaos", g.chaos})
	case *profile == "panwalk":
		gates = append(gates, namedGate{"panwalk", g.panwalk})
	case *profile == "smoke":
		topos := []string{*topo}
		switch *topo {
		case "both":
			topos = []string{"single", "shard2"}
		case "all":
			topos = []string{"single", "shard2", "shard4"}
		}
		for _, name := range topos {
			gates = append(gates, namedGate{"smoke " + name, func() error { return g.smoke(name) }})
		}
	default:
		fmt.Fprintln(stderr, "forestbench: expected -chaos, -profile=smoke or -profile=panwalk")
		fs.Usage()
		return 2
	}
	code := 0
	for _, gt := range gates {
		if err := gt.run(); err != nil {
			fmt.Fprintf(stderr, "forestbench: %s: %v\n", gt.name, err)
			code = 1
		}
	}
	return code
}

// smoke loads one in-process topology at the base rate and then twice it,
// and gates on the fold: any 5xx or transport error fails, as does an
// overall p99 beyond the bound.
func (g gateRun) smoke(name string) error {
	tp, err := newTopology(name, 32<<20)
	if err != nil {
		return err
	}
	defer tp.close()
	plans, err := g.ramp(tp)
	if err != nil {
		return err
	}
	_, err = g.drive(tp, plans, name, false)
	return err
}

// ramp is the offered load smoke and chaos share: tp's mix at the base
// rate, then at twice it, as two consecutive plans.
func (g gateRun) ramp(tp *topology) ([]*workload.Plan, error) {
	var plans []*workload.Plan
	for step := 0; step < 2; step++ {
		plan, err := workload.NewPlan(workload.Spec{
			Rate:     g.rate * float64(step+1),
			Duration: g.stepDur,
			Seed:     g.seed + int64(step),
			Mix:      tp.mix,
			Genes:    tp.genes,
			PaneRows: tp.paneRows,
		})
		if err != nil {
			return nil, err
		}
		plans = append(plans, plan)
	}
	return plans, nil
}

// drive is the one path under every CLI gate: replay plans back to back
// against tp, fold the envelopes, write the two artifacts CI uploads —
// <out>-<label>.jsonl and <out>-<label>-report.txt — and apply gate.
func (g gateRun) drive(tp *topology, plans []*workload.Plan, label string, forbidDegraded bool) (*workload.Summary, error) {
	var envs []workload.Envelope
	for _, plan := range plans {
		envs = append(envs, workload.Run(context.Background(), plan, tp.url)...)
	}
	sum := workload.Summarize(envs)

	var report, jsonl bytes.Buffer
	fmt.Fprintf(&report, "== %s: %d requests against %s ==\n", label, sum.Requests, tp.url)
	if tp.faults != nil {
		fmt.Fprintf(&report, "faults injected: %d %v\n", tp.faults.Total(), tp.faults.Counts())
	}
	sum.WriteText(&report)
	fmt.Fprintf(g.stdout, "%s\n", report.Bytes())
	if err := workload.WriteEnvelopes(&jsonl, envs); err != nil {
		return nil, err
	}
	prefix := g.out + "-" + label
	if err := os.WriteFile(prefix+".jsonl", jsonl.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(prefix+"-report.txt", report.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return sum, gate(sum, g.maxP99MS, forbidDegraded)
}

// gate is the pass/fail fold every run goes through: it must have
// happened, with no 5xx and no transport error, inside the p99 bound, and
// — where replication is supposed to hide every fault — with no degraded
// response.
func gate(sum *workload.Summary, maxP99MS float64, forbidDegraded bool) error {
	switch {
	case sum.Requests == 0:
		return fmt.Errorf("no envelopes recorded")
	case sum.Errors5xx > 0:
		return fmt.Errorf("%d 5xx responses", sum.Errors5xx)
	case sum.Transport > 0:
		return fmt.Errorf("%d transport errors", sum.Transport)
	case forbidDegraded && sum.Degraded > 0:
		return fmt.Errorf("%d degraded responses", sum.Degraded)
	case maxP99MS > 0 && sum.Latency.P99 > maxP99MS:
		return fmt.Errorf("p99 %.1fms exceeds bound %.1fms", sum.Latency.P99, maxP99MS)
	}
	return nil
}
