package main

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"forestview/internal/faultline"
)

// chaos is the -chaos gate: the replicated 3-shard R=2 fleet under
// open-loop load while a deterministic faultline injector abuses the
// coordinator's scatter paths — one shard drawing the full fault menu
// (5xx, resets, truncated bodies, stalls), another slowed but healthy. The
// topology makes zero degradation a structural obligation rather than a
// timing accident: every ownership group {0,1},{0,2},{1,2} has a member
// that either never faults (shard-0) or only slows down (shard-2), so
// failover always has somewhere correct to go. The gate fails on any 5xx,
// transport error or degraded merge — and also if the injector never
// fired, which would make the whole run vacuous.
func (g gateRun) chaos() error {
	inj := faultline.New(g.seed)
	tp, err := newFleetTopology("chaos3r2", 3, 2, 6, 16,
		&http.Client{Transport: inj.Wrap(nil)})
	if err != nil {
		return err
	}
	defer tp.close()
	tp.faults = inj
	host := func(i int) string { return strings.TrimPrefix(tp.shardServers[i].URL, "http://") }
	inj.SetRules(
		// shard-1: every other scatter request draws the next fault in the
		// cycle. Stalls are short enough that the per-attempt deadline,
		// retry and failover absorb them well inside the p99 bound.
		faultline.Rule{Host: host(1), Every: 2,
			Kinds: []faultline.Kind{faultline.Err5xx, faultline.Reset, faultline.Truncate, faultline.Stall},
			Delay: 200 * time.Millisecond},
		// shard-2: slow but correct.
		faultline.Rule{Host: host(2), Every: 3,
			Kinds: []faultline.Kind{faultline.Latency},
			Delay: 30 * time.Millisecond},
	)

	plans, err := g.ramp(tp)
	if err != nil {
		return err
	}
	_, gateErr := g.drive(tp, plans, "chaos", true)

	counts := inj.Counts()
	for _, kind := range []string{"err5xx", "reset"} {
		if counts[kind] == 0 {
			return fmt.Errorf("fault kind %s never fired (%d faults: %v) — the chaos gate proved nothing", kind, inj.Total(), counts)
		}
	}
	return gateErr
}
