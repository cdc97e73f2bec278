package main

import (
	"context"
	"fmt"
	"io"
)

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction: positive means b regressed.
func worsening(m metric, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// noise runs every selected workload twice on the same code and seed and
// prints, for each metric, the relative difference between the two runs
// next to its bound. A metric whose difference exceeds its bound cannot
// tell a regression from noise: the run exits nonzero so nobody reads an
// "unchanged" out of it.
func noise(ctx context.Context, selected []*workload, cfg runConfig, stdout, stderr io.Writer) int {
	progress := cfg.log
	cfg.log = io.Discard
	exceeded := 0
	for _, w := range selected {
		var runs [2]*result
		for i := range runs {
			fmt.Fprintf(progress, "%s: run %d of 2\n", w.name, i+1)
			res, err := runWorkload(ctx, w, cfg)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			runs[i] = res
		}
		fmt.Fprintf(stdout, "\n== %s: two runs, seed %d ==\n", w.name, cfg.seed)
		fmt.Fprintf(stdout, "  %-32s %14s %14s %9s %7s\n", "metric", "run 1", "run 2", "diff", "bound")
		for _, m := range modeMetrics(cfg.trace) {
			a, b := runs[0].metrics[m.name], runs[1].metrics[m.name]
			diff := max(worsening(m, a, b), worsening(m, b, a))
			verdict := ""
			if m.bound > 0 && diff > m.bound {
				verdict = "  EXCEEDS BOUND"
				exceeded++
			}
			if m.bound > 0 {
				fmt.Fprintf(stdout, "  %-32s %14.6g %14.6g %8.2f%% %6.1f%%%s\n", m.name, a, b, 100*diff, 100*m.bound, verdict)
			} else {
				fmt.Fprintf(stdout, "  %-32s %14.6g %14.6g %8.2f%%\n", m.name, a, b, 100*diff)
			}
		}
	}
	if exceeded > 0 {
		fmt.Fprintf(stdout, "\n%d end-to-end differences exceed their bounds: unresolved, not unchanged\n", exceeded)
		return 1
	}
	return 0
}
