package main

import (
	"context"
	"fmt"

	"forestview/internal/workload"
)

// panwalkPrefetchWorkers arms the ON run's prefetcher; two workers match
// forestviewd's default.
const panwalkPrefetchWorkers = 2

// panwalk is -profile=panwalk, the viewport-pyramid prefetch proof. The
// same seeded pan/zoom walk (workload.NewPanwalkPlan — whole-window steps
// with the prefetcher's own parent/child zoom geometry) runs twice against
// the single-role topology, prefetcher off and then on, and the gate asks
// what two runs of one plan decide whatever the host's scheduling does:
//
//   - with prefetch on, at least one tile is disclosed as "prefetched" and
//     most of the walk lands warm (hit/prefetched/coalesced) —
//     speculation demonstrably ahead of the viewer;
//   - with prefetch on, strictly fewer requests pay a cold "miss" render
//     than with it off: both runs touch the same windows in the same
//     order, so the difference is exactly what speculation got to first.
//
// Both runs also pass the static p99 bound. That speculation never slows
// the foreground down is a latency claim, and those belong to the referee:
// bench/'s tile-cold workload (uncorrelated tiles, where prefetch is pure
// waste) and session-hot's lat_p25_ms. Two runs of ~50 requests cannot
// decide it: their p99s are a max against a max.
//
// The tile geometry is chosen so auto-level selection engages the pyramid
// (64-row windows over 32-pixel tiles resolve to level 1), making the walk
// exercise pyramid slabs, prefetch, and level transitions at once.
func (g gateRun) panwalk() error {
	runOnce := func(label string, prefetchWorkers int) (*workload.Tally, error) {
		tp, err := newSingleTopology(prefetchWorkers)
		if err != nil {
			return nil, err
		}
		defer tp.close()
		// Pre-cluster every pane, so a first-touch tree build cannot land
		// inside the p99 bound of one run and not the other.
		if err := tp.srv.WarmTrees(context.Background()); err != nil {
			return nil, err
		}
		plan, err := workload.NewPanwalkPlan(workload.Spec{
			Rate:     g.rate,
			Duration: g.stepDur,
			Seed:     g.seed,
			PaneRows: tp.paneRows,
			TileRows: 64,
			TileSize: 32,
		})
		if err != nil {
			return nil, err
		}
		sum, err := g.drive(tp, []*workload.Plan{plan}, label, false)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		// A panwalk plan is heatmap-only, so the overall tally is the walk's.
		return &sum.Tally, nil
	}

	off, err := runOnce("prefetch-off", 0)
	if err != nil {
		return err
	}
	on, err := runOnce("prefetch-on", panwalkPrefetchWorkers)
	if err != nil {
		return err
	}

	dispositions := fmt.Sprintf("%d hit / %d miss / %d coalesced / %d prefetched", on.Hits, on.Misses, on.Coalesced, on.Prefetched)
	switch {
	case on.Prefetched == 0:
		return fmt.Errorf("prefetch-on run served no prefetched tiles (%s)", dispositions)
	case on.WarmShare() <= 0.5:
		return fmt.Errorf("prefetch-on walk was mostly cold: warm share %.0f%% (%s)", 100*on.WarmShare(), dispositions)
	case on.Misses >= off.Misses:
		return fmt.Errorf("prefetch saved no cold render: %d misses with prefetch vs %d without", on.Misses, off.Misses)
	}
	fmt.Fprintf(g.stdout, "panwalk gate: warm %.0f%% (%d prefetched), %d cold renders with prefetch vs %d without\n",
		100*on.WarmShare(), on.Prefetched, on.Misses, off.Misses)
	return nil
}
