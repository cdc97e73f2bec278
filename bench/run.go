package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"forestview/internal/cluster"
)

// runConfig is one invocation's settings for one workload.
type runConfig struct {
	seed int64
	// seconds is the measured time, split evenly between the two measured
	// phases: solo and sat in alternating segments with tracing off, cruise
	// then sat with it on.
	seconds float64
	trace   bool
	outDir  string
	log     io.Writer   // progress and the human-readable report
	scale   fixtureSpec // paperScale, except in the tests
}

// result is one run of one workload: the metrics of the mode it ran in
// (end-to-end with tracing off, per-layer with tracing on).
type result struct {
	workload  string
	attempted int
	failed    int
	metrics   map[string]float64
	// wrong lists the first few failures, for the report.
	wrong []string
}

// phase is one stretch of load and what the client saw of it.
type phase struct {
	name    string
	ops     []op
	samples []sample
	// elapsed is how long the phase measured (closed loops only).
	elapsed time.Duration
	// segs cuts a measured phase into the stretches it ran in.
	segs []segment
}

// segment is one uninterrupted stretch of a measured phase: a range of its
// samples (whose times are offsets from the segment's start), how long it
// measured, and the machine's pace over it, the mean of the speed probes
// taken right before and right after.
type segment struct {
	from, to int
	elapsed  time.Duration
	pace     float64
}

// failures counts the phase's ops that failed in transport, status,
// degradation or verification, noting the first few in wrong.
func (p *phase) failures(wrong *[]string) int {
	failed := 0
	for i := range p.samples {
		s := &p.samples[i]
		if s.ok() && s.wrong == "" {
			continue
		}
		failed++
		if len(*wrong) < 5 {
			why := s.wrong
			if why == "" {
				why = fmt.Sprintf("status %d degraded=%t %s", s.status, s.degraded, s.err)
			}
			*wrong = append(*wrong, fmt.Sprintf("%s %s: %s", p.name, p.ops[i].path, why))
		}
	}
	return failed
}

// latencies returns the latency in ms of every sample in [from, to) that
// keep accepts (nil: all of them).
func (p *phase) latencies(from, to int, keep func(o *op, s *sample) bool) []float64 {
	var out []float64
	for i := from; i < to; i++ {
		if keep == nil || keep(&p.ops[i], &p.samples[i]) {
			out = append(out, ms(p.samples[i].latency()))
		}
	}
	return out
}

// shareOf is the share of served ops whose sample satisfies is.
func (p *phase) shareOf(is func(s *sample) bool) float64 {
	served, n := 0, 0
	for i := range p.samples {
		if s := &p.samples[i]; s.ok() {
			served++
			if is(s) {
				n++
			}
		}
	}
	return share(n, served)
}

// counters is the daemon-side ledger the per-layer counts are deltas of.
type counters struct {
	hits, misses, coalesced, computed, rejected, treeBuilds int64
	pfRendered, pfServed, pfShed, pfEvictedUnused           int64
	shardRequests, failovers, hedges, retries, breakerSkips int64
	breakerTrips, shardErrors, degraded                     int64
	cacheEntries, groups                                    int
	cacheBytes                                              int64
}

func readCounters(tp *topology) counters {
	st := tp.front.Stats()
	var c counters
	for _, name := range []string{"search", "enrich", "heatmap"} {
		ep := st.Endpoints[name]
		c.hits += ep.CacheHits
		c.misses += ep.CacheMisses
		c.coalesced += ep.Coalesced
		c.computed += ep.Computed
		c.rejected += ep.Rejected
	}
	c.treeBuilds = st.TreeCache.Builds
	c.cacheEntries, c.cacheBytes = st.Cache.Entries, st.Cache.Bytes
	if p := st.Prefetch; p != nil {
		c.pfRendered, c.pfServed, c.pfShed, c.pfEvictedUnused = p.Rendered, p.Served, p.Shed, p.EvictedUnused
	}
	if sc := st.Scatter; sc != nil {
		c.groups, c.degraded = sc.Groups, sc.Degraded+sc.FullOutages
		for _, sh := range sc.Shards {
			c.shardRequests += sh.Requests
			c.shardErrors += sh.Errors
			c.failovers += sh.Failovers
			c.hedges += sh.Hedges
			c.retries += sh.Retries
			c.breakerSkips += sh.BreakerSkips
			c.breakerTrips += sh.BreakerTrips
		}
	}
	return c
}

// runWorkload measures one workload once: generate inputs, plan, set up
// (keeping the last topology), warm up, run the two measured phases,
// verify, and in trace mode run the traced pass.
func runWorkload(ctx context.Context, w *workload, cfg runConfig) (*result, error) {
	logf := func(format string, args ...any) { fmt.Fprintf(cfg.log, format+"\n", args...) }
	conns := connections()
	half := time.Duration(cfg.seconds / 2 * float64(time.Second))

	t0 := time.Now()
	fx, err := newFixture(cfg.scale)
	if err != nil {
		return nil, err
	}
	ref, err := newReference(fx)
	if err != nil {
		return nil, err
	}
	if w.panes {
		// Pane 0 for the byte-identity check; every pane when the traced
		// pass re-executes tile kernels.
		n := 1
		if cfg.trace {
			n = fx.spec.panes
		}
		if err := ref.clusterPanes(n); err != nil {
			return nil, err
		}
	}
	var treeS float64
	if w.panes && cfg.trace {
		// The tree alone, on the same quiet heap the panes were clustered on.
		t := time.Now()
		if _, err := cluster.HierarchicalCtx(ctx, ref.dss[0].Data, cluster.PearsonDist, cluster.AverageLinkage); err != nil {
			return nil, err
		}
		treeS = time.Since(t).Seconds()
	}

	// The plan: one stream, cut into the phases in the order they run.
	st, err := newStream(w, planInputs{modules: fx.modules, paneRows: ref.paneRows(), topGenes: ref.topGenes}, cfg.seed)
	if err != nil {
		return nil, err
	}
	warm := &phase{name: "warm-up"}
	if warm.ops, err = st.pretouch(); err != nil {
		return nil, err
	}
	// Tracing off: solo, one client back to back, the latency a lone user
	// sees. Tracing on: cruise, Poisson arrivals over all connections.
	first := &phase{name: "solo"}
	firstOps := int(w.satCap * half.Seconds())
	var due []time.Duration
	if cfg.trace {
		first.name = "cruise"
		due = arrivals(cfg.seed, w.cruise, half)
		firstOps = len(due)
	}
	sat := &phase{name: "sat"}
	traced := &phase{name: "traced"}
	nTraced := 0
	if cfg.trace {
		nTraced = traceOps
	}
	for _, cut := range []struct {
		p *phase
		n int
	}{
		{warm, int(w.cruise * warmupSeconds)},
		{first, firstOps},
		{sat, int(w.satCap * half.Seconds())},
		{traced, nTraced},
	} {
		ops, err := st.take(cut.n)
		if err != nil {
			return nil, err
		}
		cut.p.ops = append(cut.p.ops, ops...)
	}
	// The fleet's traced pass times its direct scatters on twins: further
	// ops of the stream, as many of each kind as the traced ops have.
	var twins []op
	if cfg.trace && w.fleet {
		need := map[opKind]int{}
		for _, o := range traced.ops {
			need[o.kind]++
		}
		for need[opSearch] > 0 || need[opEnrich] > 0 {
			more, err := st.take(traceOps / 4)
			if err != nil {
				return nil, err
			}
			for _, o := range more {
				need[o.kind]--
			}
			twins = append(twins, more...)
		}
	}
	logf("inputs and plan: %.1fs (%d warm-up ops, up to %d %s ops over %v, up to %d sat ops over %v at %d connections)",
		time.Since(t0).Seconds(), len(warm.ops), len(first.ops), first.name, half, len(sat.ops), half, conns)

	// Set-up, timed. Only the last topology is kept.
	reps := setupReps(w)
	if cfg.trace {
		reps = 1
	}
	var tp *topology
	var setups, rawSetups []float64
	probe := newSpeedProbe(conns)
	// pace reads the machine's pace once the daemon has gone quiet.
	pace := func() float64 {
		if tp != nil && w.panes {
			settlePrefetch(tp.front)
		}
		return probe.pace()
	}
	for r := 0; r < reps; r++ {
		if tp != nil {
			tp.close()
			tp = nil
		}
		// Both probes run on a collected heap: a collection of set-up's
		// garbage running beside a probe would read as a slow machine.
		runtime.GC()
		before := pace()
		if tp, err = newTopology(ctx, fx, w); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", r+1, err)
		}
		runtime.GC()
		at := (before + pace()) / 2
		rawSetups = append(rawSetups, tp.setup.total.Seconds())
		setups = append(setups, tp.setup.total.Seconds()/at)
		logf("set-up %d/%d: %.3fs at pace %.3f (parse %.3f, engine %.3f, enricher %.3f, trees %.3f, pyramid %.3f)", r+1, reps,
			tp.setup.total.Seconds(), at, tp.setup.parse.Seconds(), tp.setup.engine.Seconds(),
			tp.setup.enricher.Seconds(), tp.setup.trees.Seconds(), tp.setup.pyramid.Seconds())
	}
	defer func() { tp.close() }()
	fx.pcl = nil // nothing is set up after this; keep the files out of mem_live_mb
	hc := newHTTPClient(tp.url, conns)
	defer hc.close()

	// Warm-up: the pre-touch pass, then the first warmupSeconds' worth of
	// the plan, back to back. A failure here means the workload is broken.
	var wrong []string
	warm.samples, _ = runClosed(len(warm.ops), time.Hour, conns, hc.doer(warm.ops))
	ref.verify(warm.ops, warm.samples)
	if failed := warm.failures(&wrong); failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d ops failed, first: %s", failed, len(warm.ops), wrong[0])
	}
	if w.panes {
		if err := ref.probeTile(hc); err != nil {
			return nil, err
		}
	}

	// The measured part starts from a collected heap, so the collector's
	// pacing during it follows the daemon's live heap and not whatever
	// garbage set-up and warm-up happened to leave behind.
	counted := readCounters(tp)
	var paces []float64
	if cfg.trace {
		// Per-layer numbers are reported as measured; the pace is a
		// diagnostic beside them.
		paces = append(paces, pace())
		runtime.GC()
		first.samples = runOpen(due, conns, hc.doer(first.ops))
		first.segs = []segment{{to: len(first.samples), pace: 1}}
		paces = append(paces, pace())
		runtime.GC()
		sat.samples, sat.elapsed = runClosed(len(sat.ops), half, conns, hc.doer(sat.ops))
		sat.ops = sat.ops[:len(sat.samples)]
		sat.segs = []segment{{to: len(sat.samples), elapsed: sat.elapsed, pace: 1}}
		paces = append(paces, pace())
	} else {
		runtime.GC()
		runRounds(first, sat, half, roundLength, conns, hc.doer, pace)
	}
	after := readCounters(tp)
	if sat.elapsed < half {
		logf("note: the sat plan ran out after %v; sat_qps covers that long", sat.elapsed)
	}

	res := &result{workload: w.name, metrics: map[string]float64{}}
	misses := 0
	for _, p := range []*phase{first, sat} {
		ref.verify(p.ops, p.samples)
		res.attempted += len(p.samples)
		res.failed += p.failures(&res.wrong)
		for i := range p.samples {
			if p.samples[i].disp == "miss" {
				misses++
			}
		}
	}
	// Each segment's own numbers, scaled to the reference pace; a run's
	// value is their median, so a neighbour on the host that slows the
	// machine for part of the run moves little.
	var p25s, means, qpss, rawP25s, rawMeans, rawQPSs []float64
	for _, sg := range first.segs {
		lat := first.latencies(sg.from, sg.to, nil)
		rawP25s, rawMeans = append(rawP25s, percentile(lat, 25)), append(rawMeans, mean(lat))
		p25s, means = append(p25s, percentile(lat, 25)/sg.pace), append(means, mean(lat)/sg.pace)
	}
	for _, sg := range sat.segs {
		done := 0
		for i := sg.from; i < sg.to; i++ {
			if s := &sat.samples[i]; s.ok() && s.wrong == "" && s.done <= sg.elapsed {
				done++
			}
		}
		qps := float64(done) / sg.elapsed.Seconds()
		rawQPSs, qpss = append(rawQPSs, qps), append(qpss, qps*sg.pace)
	}
	for k := 0; !cfg.trace && k < min(len(first.segs), len(sat.segs)); k++ {
		logf("round %d: solo %d ops p25 %.3f mean %.3f ms at pace %.3f; sat %.2f/s at pace %.3f", k+1,
			first.segs[k].to-first.segs[k].from, rawP25s[k], rawMeans[k], first.segs[k].pace, rawQPSs[k], sat.segs[k].pace)
	}
	lat := first.latencies(0, len(first.samples), nil)
	missShare := share(misses, res.attempted)
	warmShare := first.shareOf((*sample).warm)
	satQPS := median(qpss)
	logf("%s: %d ops, latency as measured p25 %.3f p50 %.3f p75 %.3f p95 %.3f p99 %.3f mean %.3f ms, warm share %.3f", first.name, len(lat),
		percentile(lat, 25), percentile(lat, 50), percentile(lat, 75), percentile(lat, 95), percentile(lat, 99), mean(lat), warmShare)
	logf("sat: %d ops at %d clients, median segment %.2f/s as measured; miss share over both phases %.3f", len(sat.samples), conns, median(rawQPSs), missShare)

	var late []float64
	if cfg.trace {
		for i := range first.samples {
			late = append(late, ms(first.samples[i].lateness()))
		}
	}
	lateP95 := percentile(late, 95)
	if err := checkPreconditions(w, missShare, warmShare, lateP95, after); err != nil {
		return nil, err
	}

	m := res.metrics
	if !cfg.trace {
		m["setup_s"] = median(setups)
		m["lat_p25_ms"] = median(p25s)
		m["lat_mean_ms"] = median(means)
		logf("as measured, before scaling to the reference pace: setup_s %.4g, lat_p25_ms %.4g, lat_mean_ms %.4g, sat_qps %.4g",
			median(rawSetups), median(rawP25s), median(rawMeans), median(rawQPSs))
		m["sat_qps"] = satQPS
		m["ok_share"] = 1 - share(res.failed, res.attempted)
		// Everything the harness held is dropped before the heap is read:
		// what stays is the topology (engine slabs, trees, pyramids, LRU)
		// and a few MiB of ontology.
		ref, st, warm, first, sat, traced, lat = nil, nil, nil, nil, nil, nil, nil
		runtime.GC()
		runtime.GC()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		m["mem_live_mb"] = float64(mem.HeapAlloc) / (1 << 20)
		return res, nil
	}

	// Per-layer: set-up by layer, daemon counters across the two measured
	// phases, the client's view of the cruise split by endpoint and
	// disposition, then the traced pass.
	for _, pl := range perLayer {
		m[pl.name] = 0
	}
	m["microarray.pcl_parse_s"] = tp.setup.parse.Seconds()
	m["spell.engine_build_s"] = tp.setup.engine.Seconds()
	m["golem.enricher_build_s"] = tp.setup.enricher.Seconds()
	if w.panes {
		m["cluster.tree_s"] = treeS
		m["core.cluster_s"] = median(ref.clusterS)
		m["core.pyramid_build_ms"] = ms(tp.setup.pyramid) / float64(fx.spec.panes)
	}
	m["server.cache_hits"] = float64(after.hits - counted.hits)
	m["server.cache_misses"] = float64(after.misses - counted.misses)
	m["server.coalesced"] = float64(after.coalesced - counted.coalesced)
	m["server.computed"] = float64(after.computed - counted.computed)
	m["server.rejected"] = float64(after.rejected - counted.rejected)
	m["server.tree_builds"] = float64(after.treeBuilds - counted.treeBuilds)
	m["server.cache_entries"] = float64(after.cacheEntries)
	m["server.cache_bytes"] = float64(after.cacheBytes)
	rendered, pfServed := after.pfRendered-counted.pfRendered, after.pfServed-counted.pfServed
	m["server.prefetch_rendered"] = float64(rendered)
	m["server.prefetch_served"] = float64(pfServed)
	m["server.prefetch_shed"] = float64(after.pfShed - counted.pfShed)
	m["server.prefetch_evicted_unused"] = float64(after.pfEvictedUnused - counted.pfEvictedUnused)
	m["server.prefetch_useful_share"] = share(int(pfServed), int(rendered))
	m["shard.groups_per_query"] = float64(after.groups)
	m["shard.requests"] = float64(after.shardRequests - counted.shardRequests)
	m["shard.failovers"] = float64(after.failovers - counted.failovers)
	m["shard.hedges"] = float64(after.hedges - counted.hedges)
	m["shard.retries"] = float64(after.retries - counted.retries)
	m["shard.breaker_skips"] = float64(after.breakerSkips - counted.breakerSkips)

	m["client.n_ops"] = float64(res.attempted)
	m["client.gen_late_p95_ms"] = lateP95
	m["client.pace"] = median(paces)
	m["client.cruise_p50_ms"] = percentile(lat, 50)
	m["client.cruise_p95_ms"] = percentile(lat, 95)
	m["client.cruise_p99_ms"] = percentile(lat, 99)
	m["client.slo_ok_share"] = share(len(first.latencies(0, len(first.samples), func(_ *op, s *sample) bool {
		return s.ok() && s.wrong == "" && ms(s.latency()) <= sloMS
	})), len(first.samples))
	m["client.warm_share"] = warmShare
	m["client.sat_qps"] = satQPS
	for name, keep := range map[string]func(*op, *sample) bool{
		"client.search_p50_ms": func(o *op, _ *sample) bool { return o.kind == opSearch },
		"client.enrich_p50_ms": func(o *op, _ *sample) bool { return o.kind == opEnrich },
		"client.tile_p50_ms":   func(o *op, _ *sample) bool { return o.kind == opTile },
		"client.hit_p50_ms":    func(_ *op, s *sample) bool { return s.disp == "hit" || s.disp == "prefetched" },
		"client.miss_p50_ms":   func(_ *op, s *sample) bool { return s.disp == "miss" },
	} {
		m[name] = percentile(first.latencies(0, len(first.samples), keep), 50)
	}

	rec, ls, sizes, err := tracedPass(ctx, tp, ref, fx, traced.ops, twins)
	if err != nil {
		return nil, err
	}
	for name, xs := range ls {
		m[name] = median(xs)
	}
	alone, err := standaloneLayers(ctx, hc, traced.ops, sizes)
	if err != nil {
		return nil, err
	}
	for name, v := range alone {
		m[name] = v
	}
	path := filepath.Join(cfg.outDir, "trace-"+w.name+".jsonl")
	if err := writeSpanFile(path, rec.spans); err != nil {
		return nil, err
	}
	logf("traced pass: %d ops, %d spans -> %s", traceOps, len(rec.spans), path)
	logf("%s", traceSummary(rec.spans))
	return res, nil
}

// runRounds alternates solo (1 client) and sat (conns clients) closed-loop
// segments of about length each until each phase has measured for total,
// reading the machine's pace before the first segment and after each, and
// leaves every segment's samples and pace in its phase.
func runRounds(solo, sat *phase, total, length time.Duration, conns int, doer func([]op) doFunc, pace func() float64) {
	n := max(int(total/length), 1)
	d := total / time.Duration(n)
	before := pace()
	for k := 0; k < n; k++ {
		for _, p := range []*phase{solo, sat} {
			clients := conns
			if p == solo {
				clients = 1
			}
			rest := p.ops[len(p.samples):]
			if len(rest) == 0 {
				continue // the plan ran out
			}
			got, elapsed := runClosed(len(rest), d, clients, doer(rest))
			after := pace()
			p.segs = append(p.segs, segment{from: len(p.samples), to: len(p.samples) + len(got), elapsed: elapsed, pace: (before + after) / 2})
			p.samples = append(p.samples, got...)
			p.elapsed += elapsed
			before = after
		}
	}
	solo.ops, sat.ops = solo.ops[:len(solo.samples)], sat.ops[:len(sat.samples)]
}

// checkPreconditions rejects a run that did not exercise what its workload
// is named for. lateP95 is 0 when no open loop ran.
func checkPreconditions(w *workload, missShare, warmShare, lateP95 float64, c counters) error {
	var broken []string
	switch w.name {
	case "search-cold", "fleet-scatter":
		if missShare < minMissShareSearch {
			broken = append(broken, fmt.Sprintf("miss share %.3f < %.2f", missShare, minMissShareSearch))
		}
	case "tile-cold":
		if missShare < minMissShareTile {
			broken = append(broken, fmt.Sprintf("miss share %.3f < %.2f", missShare, minMissShareTile))
		}
	case "session-hot":
		if warmShare < minWarmShare || warmShare > maxWarmShare {
			broken = append(broken, fmt.Sprintf("warm share %.3f outside [%.2f, %.2f]", warmShare, minWarmShare, maxWarmShare))
		}
	}
	if lateP95 > maxGenLateP95MS {
		broken = append(broken, fmt.Sprintf("generator lateness p95 %.3f ms > %g ms", lateP95, maxGenLateP95MS))
	}
	if n := c.failovers + c.hedges + c.retries + c.breakerSkips + c.breakerTrips + c.shardErrors + c.degraded; n > 0 {
		broken = append(broken, fmt.Sprintf("fault-free fleet saw %d failovers, %d hedges, %d retries, %d breaker skips, %d trips, %d shard errors, %d degraded merges",
			c.failovers, c.hedges, c.retries, c.breakerSkips, c.breakerTrips, c.shardErrors, c.degraded))
	}
	if len(broken) > 0 {
		return fmt.Errorf("%s: invalid run, precondition broken: %s", w.name, strings.Join(broken, "; "))
	}
	return nil
}

// handleChildren orders the direct children of server.handle in the
// traced pass's summary line.
var handleChildren = []string{
	"spell.search", "golem.analyze", "core.slab", "render.heatmap", "render.png",
	"shard.scatter", "shard.enrich_scatter",
}

// traceSummary prints, for the traced pass's cache-missing handler spans,
// how the parent's time splits into its children's and its own.
func traceSummary(spans []span) string {
	self := selfTimes(spans)
	byName := map[string][]float64{}
	var parents, selfs []float64
	miss := map[int]bool{}
	for _, s := range spans {
		if s.Name == "server.handle" && s.Note == "miss" {
			miss[s.ID] = true
			parents = append(parents, ms(s.dur()))
			selfs = append(selfs, ms(self[s.ID]))
		}
	}
	for _, s := range spans {
		if miss[s.Parent] {
			byName[s.Name] = append(byName[s.Name], ms(s.dur()))
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "server.handle (miss, n=%d): median %.3f ms; medians of self %.3f ms", len(parents), median(parents), median(selfs))
	for _, name := range handleChildren {
		if xs := byName[name]; len(xs) > 0 {
			fmt.Fprintf(&b, ", %s %.3f ms (n=%d)", name, median(xs), len(xs))
		}
	}
	return b.String()
}
