package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// smallScale is the tests' 200-gene universe: big enough for every plan
// and topology shape, small enough to build in milliseconds.
var smallScale = fixtureSpec{genes: 200, modules: 5, datasets: 8, minExp: 8, maxExp: 12, panes: 2, leaves: 50, seed: 7}

func smallInputs(t *testing.T) (*fixture, planInputs) {
	t.Helper()
	fx, err := newFixture(smallScale)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newReference(fx)
	if err != nil {
		t.Fatal(err)
	}
	return fx, planInputs{modules: fx.modules, paneRows: ref.paneRows(), topGenes: ref.topGenes}
}

func takePaths(t *testing.T, w *workload, in planInputs, seed int64, n int) []op {
	t.Helper()
	st, err := newStream(w, in, seed)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := st.pretouch()
	if err != nil {
		t.Fatal(err)
	}
	ops, err := st.take(n)
	if err != nil {
		t.Fatal(err)
	}
	return append(pre, ops...)
}

func TestPlansArePureFunctionsOfTheSeed(t *testing.T) {
	_, in := smallInputs(t)
	for i := range workloads {
		w := &workloads[i]
		a, b, c := takePaths(t, w, in, 1, 300), takePaths(t, w, in, 1, 300), takePaths(t, w, in, 2, 300)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different plans", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same plan", w.name)
		}
	}
	if a, b := arrivals(1, 50, time.Second), arrivals(1, 50, time.Second); !reflect.DeepEqual(a, b) || len(a) < 25 || len(a) > 80 {
		t.Errorf("arrivals: not reproducible or implausible count %d for 50/s over 1s", len(a))
	}
}

func TestColdPlansNeverRepeatAnOp(t *testing.T) {
	_, in := smallInputs(t)
	for _, name := range []string{"search-cold", "tile-cold", "fleet-scatter"} {
		seen := map[string]bool{}
		for _, o := range takePaths(t, findWorkload(name), in, 3, 400) {
			if seen[o.path] {
				t.Fatalf("%s: %s planned twice", name, o.path)
			}
			seen[o.path] = true
		}
	}
}

func TestFleetScatterSearchesAreSearchColds(t *testing.T) {
	_, in := smallInputs(t)
	cold := takePaths(t, findWorkload("search-cold"), in, 5, 200)
	var searches, enriches int
	for _, o := range takePaths(t, findWorkload("fleet-scatter"), in, 5, 200) {
		switch o.kind {
		case opSearch:
			if o.path != cold[searches].path {
				t.Fatalf("fleet-scatter search %d is %s, search-cold's is %s", searches, o.path, cold[searches].path)
			}
			searches++
		case opEnrich:
			enriches++
		}
	}
	if got := share(enriches, searches+enriches); got != fleetEnrichPct/100.0 {
		t.Errorf("fleet-scatter enrich share %.2f, want exactly %d%%: enrichments rotate in", got, fleetEnrichPct)
	}
}

func TestSessionHotPinsItsFreshShare(t *testing.T) {
	_, in := smallInputs(t)
	st, err := newStream(findWorkload("session-hot"), in, 9)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := st.pretouch()
	if err != nil {
		t.Fatal(err)
	}
	touched := map[string]bool{}
	for _, o := range pre {
		touched[o.path] = true
	}
	ops, err := st.take(3000)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[opKind]int{}
	fresh := 0
	seen := map[string]bool{}
	for i, o := range ops {
		kinds[o.kind]++
		if o.fresh {
			fresh++
			if o.kind != opEnrich && (seen[o.path] || touched[o.path]) {
				t.Fatalf("op %d (%s) is marked fresh but was planned before", i, o.path)
			}
		}
		seen[o.path] = true
		if o.kind == opEnrich && len(o.genes) == 0 {
			t.Fatalf("op %d: enrichment without a selection", i)
		}
	}
	if got := share(fresh, len(ops)); got < freshShare-0.01 || got > freshShare+0.01 {
		t.Errorf("fresh share %.3f, want %.2f pinned", got, freshShare)
	}
	if tiles := share(kinds[opTile], len(ops)); tiles < 0.5 || tiles > 0.7 {
		t.Errorf("tile share %.2f, want about 0.6 (kinds %v)", tiles, kinds)
	}
	if d := kinds[opSearch] - kinds[opEnrich]; d < 0 || d > sessionUsers {
		t.Errorf("%d searches but %d enrichments: every search is followed by its enrichment", kinds[opSearch], kinds[opEnrich])
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{{50, 30}, {95, 50}, {20, 10}, {21, 20}, {100, 50}, {0, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{50, 10, 40, 20, 30}) {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{7.5, 1.1, 1.3}); got != 1.3 {
		t.Errorf("median of three set-ups = %v, want the middle one", got)
	}
	if got := median([]float64{2, 8}); got != 5 {
		t.Errorf("median of two set-ups = %v, want their mean", got)
	}
}

func TestOpenLoopNeverExceedsItsConnectionsAndChargesTheQueue(t *testing.T) {
	const conns, n, service = 2, 12, 5 * time.Millisecond
	var inFlight, peak atomic.Int32
	due := make([]time.Duration, n) // a burst: everything due at once
	samples := runOpen(due, conns, func(_, _ int, _ *sample) {
		now := inFlight.Add(1)
		for {
			if old := peak.Load(); now <= old || peak.CompareAndSwap(old, now) {
				break
			}
		}
		time.Sleep(service)
		inFlight.Add(-1)
	})
	if got := peak.Load(); got != conns {
		t.Errorf("peak in flight %d, want exactly %d", got, conns)
	}
	// The last op waited for five earlier ones on its connection, and that
	// wait is latency, not lateness.
	last := samples[n-1]
	if last.latency() < (n/conns)*service {
		t.Errorf("last op's latency %v does not include its queue wait (want >= %v)", last.latency(), (n/conns)*service)
	}
	if last.lateness() > service {
		t.Errorf("queue wait %v was booked as generator lateness", last.lateness())
	}
	// An op due in the future is sent at its due time, not before.
	samples = runOpen([]time.Duration{20 * time.Millisecond}, conns, func(_, _ int, _ *sample) {})
	if s := samples[0]; s.sent < s.due || s.latency() < 0 {
		t.Errorf("op due at %v was sent at %v", s.due, s.sent)
	}
}

func TestClosedLoopStopsAtItsDeadline(t *testing.T) {
	samples, elapsed := runClosed(1000, 30*time.Millisecond, 2, func(_, _ int, _ *sample) { time.Sleep(time.Millisecond) })
	if elapsed != 30*time.Millisecond || len(samples) < 20 || len(samples) > 70 {
		t.Errorf("deadline-bound phase: %d ops over %v", len(samples), elapsed)
	}
	samples, elapsed = runClosed(4, time.Second, 2, func(_, _ int, _ *sample) { time.Sleep(time.Millisecond) })
	if len(samples) != 4 || elapsed >= time.Second {
		t.Errorf("plan-bound phase: %d ops over %v, want 4 ops and the time they took", len(samples), elapsed)
	}
}

// TestRoundsCutPhasesIntoPacedSegments drives runRounds with a scripted
// pace and a plan that runs out: every sample belongs to exactly one
// segment, a segment's pace is the mean of the readings around it, and a
// phase whose plan is used up stops while the other goes on.
func TestRoundsCutPhasesIntoPacedSegments(t *testing.T) {
	solo, sat := &phase{name: "solo", ops: make([]op, 1000)}, &phase{name: "sat", ops: make([]op, 25)}
	reading := 0.0
	pace := func() float64 { reading++; return reading }
	doer := func([]op) doFunc { return func(_, _ int, _ *sample) { time.Sleep(time.Millisecond) } }
	runRounds(solo, sat, 30*time.Millisecond, 10*time.Millisecond, 2, doer, pace)
	if len(solo.segs) != 3 || len(sat.segs) < 1 || len(sat.segs) > 2 {
		t.Fatalf("%d solo and %d sat segments, want 3 and 1 or 2 (the sat plan runs out)", len(solo.segs), len(sat.segs))
	}
	if len(sat.samples) != 25 || len(sat.ops) != 25 || len(solo.ops) != len(solo.samples) || len(solo.samples) >= 1000 {
		t.Errorf("sat ran %d of 25 ops, solo %d samples for %d ops", len(sat.samples), len(solo.samples), len(solo.ops))
	}
	for _, p := range []*phase{solo, sat} {
		next := 0
		for _, sg := range p.segs {
			if sg.from != next || sg.to <= sg.from {
				t.Errorf("%s segment [%d, %d) does not follow sample %d", p.name, sg.from, sg.to, next)
			}
			next = sg.to
		}
		if next != len(p.samples) {
			t.Errorf("%s segments end at %d of %d samples", p.name, next, len(p.samples))
		}
	}
	// Readings 1 and 2 bracket the first solo segment, 2 and 3 the first sat.
	if solo.segs[0].pace != 1.5 || sat.segs[0].pace != 2.5 || solo.segs[1].pace != 3.5 {
		t.Errorf("paces %v %v %v, want 1.5 2.5 3.5", solo.segs[0].pace, sat.segs[0].pace, solo.segs[1].pace)
	}
	if p := newSpeedProbe(2).pace(); p <= 0 || p > 100 {
		t.Errorf("the probe read pace %v", p)
	}
}

// readSpans reads a trace file back, the way a later tool would.
func readSpans(r io.Reader) ([]span, error) {
	var spans []span
	dec := json.NewDecoder(r)
	for {
		var s span
		if err := dec.Decode(&s); err == io.EOF {
			return spans, nil
		} else if err != nil {
			return nil, err
		}
		spans = append(spans, s)
	}
}

func TestSpanSelfTimesAndJSONLRoundTrip(t *testing.T) {
	spans := []span{
		{Op: 0, ID: 1, Name: "server.handle", StartNS: 100, EndNS: 1100, Note: "miss"},
		{Op: 0, ID: 2, Parent: 1, Name: "render.heatmap", StartNS: 0, EndNS: 600},
		{Op: 0, ID: 3, Parent: 1, Name: "render.png", StartNS: 600, EndNS: 900},
		{Op: 1, ID: 4, Name: "spell.search", StartNS: 2000, EndNS: 2500, Note: "parent was a hit"},
		{Op: 2, ID: 5, Parent: 6, Name: "spell.partial", StartNS: 0, EndNS: 10, Twin: true},
		{Op: 2, ID: 6, Name: "shard.scatter", StartNS: 10, EndNS: 50},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 100, 2: 600, 3: 300, 4: 500, 5: 10, 6: 30} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	var buf bytes.Buffer
	if err := writeSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(spans) {
		t.Errorf("%d lines for %d spans", lines, len(spans))
	}
	back, err := readSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, spans) {
		t.Errorf("round trip changed the spans:\n got %+v\nwant %+v", back, spans)
	}

	// A recorder's children run before the parent they belong to.
	rec := newRecorder()
	parent := rec.reserve(0, "server.handle")
	rec.child(0, parent, "spell.search", func() { time.Sleep(time.Millisecond) })
	rec.time(parent, func() { time.Sleep(2 * time.Millisecond) })
	if got := selfTimes(rec.spans)[parent]; got <= 0 || got >= rec.spans[parent-1].dur() {
		t.Errorf("recorded parent's self time %v, want between 0 and its %v", got, rec.spans[parent-1].dur())
	}
	rec.detach(parent, "parent was a hit")
	if rec.spans[1].Parent != 0 || rec.spans[1].Note == "" {
		t.Errorf("detach left %+v", rec.spans[1])
	}
}

func TestBrokenPreconditionsInvalidateTheRun(t *testing.T) {
	ok := func(name string, miss, warm, late float64, c counters) error {
		return checkPreconditions(findWorkload(name), miss, warm, late, c)
	}
	if err := ok("search-cold", 1, 0, 0.5, counters{}); err != nil {
		t.Errorf("a clean search-cold run was rejected: %v", err)
	}
	if err := ok("session-hot", 0.2, 0.8, 0.5, counters{}); err != nil {
		t.Errorf("a clean session-hot run was rejected: %v", err)
	}
	for what, err := range map[string]error{
		"search-cold served from cache": ok("search-cold", 0.90, 0, 0.5, counters{}),
		"tile-cold served from cache":   ok("tile-cold", 0.85, 0, 0.5, counters{}),
		"session-hot too cold":          ok("session-hot", 0.5, 0.5, 0.5, counters{}),
		"session-hot too warm":          ok("session-hot", 0.05, 0.95, 0.5, counters{}),
		"late generator":                ok("tile-cold", 1, 0, maxGenLateP95MS+1, counters{}),
		"failover in a healthy fleet":   ok("fleet-scatter", 1, 0, 0.5, counters{failovers: 1}),
		"breaker trip":                  ok("fleet-scatter", 1, 0, 0.5, counters{breakerTrips: 1}),
	} {
		if err == nil || !strings.Contains(err.Error(), "invalid run") {
			t.Errorf("%s: got %v, want an invalid-run error", what, err)
		}
	}
	// An invalid or impossible invocation exits nonzero and prints no result.
	var out bytes.Buffer
	if code := run([]string{"-workload", "no-such-workload"}, &out, io.Discard); code == 0 || strings.Contains(out.String(), `"metrics"`) {
		t.Errorf("unknown workload: exit %d, output %q", code, out.String())
	}
	if code := run([]string{"-trace", "2"}, &out, io.Discard); code == 0 {
		t.Error("-trace 2 was accepted")
	}
}

// TestSmallScaleRuns drives the whole pipeline — fixture, plan, set-ups,
// warm-up, cruise, sat, verification, traced pass — over the 200-gene
// universe: one daemon with tracing off, the fleet with tracing on.
func TestSmallScaleRuns(t *testing.T) {
	for _, c := range []struct {
		workload string
		trace    bool
	}{{"search-cold", false}, {"fleet-scatter", true}} {
		cfg := runConfig{seed: 1, seconds: 1.5, trace: c.trace, outDir: t.TempDir(), log: io.Discard, scale: smallScale}
		res, err := runWorkload(context.Background(), findWorkload(c.workload), cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.workload, err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", c.workload, res.failed, res.attempted, res.wrong)
		}
		for _, m := range modeMetrics(c.trace) {
			if _, ok := res.metrics[m.name]; !ok {
				t.Errorf("%s: metric %s missing", c.workload, m.name)
			}
		}
		var line bytes.Buffer
		if err := writeResultJSON(&line, res, c.trace); err != nil {
			t.Fatal(err)
		}
		var parsed map[string]any
		if err := json.Unmarshal(line.Bytes(), &parsed); err != nil || len(parsed) != 4 {
			t.Errorf("%s: result line %q: %v", c.workload, line.String(), err)
		}
		if c.trace {
			f, err := os.Open(cfg.outDir + "/trace-" + c.workload + ".jsonl")
			if err != nil {
				t.Fatal(err)
			}
			spans, err := readSpans(f)
			f.Close()
			if err != nil || len(spans) < traceOps {
				t.Errorf("%s: %d spans read back: %v", c.workload, len(spans), err)
			}
		}
	}
}

// TestBenchmarkJSONMatchesSpec keeps the repository's BENCHMARK.json and
// the tables in spec.go saying the same thing.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds || !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("run_seconds %v paths %v, want %v and [bench]", file.RunSeconds, file.Paths, defaultSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go %q: %q", i, file.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []jsonMetric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in spec.go", len(got), kind, len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, spec.go %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != m.bound || m.bound <= 0 || m.bound > 0.25)) {
				t.Errorf("%s metric %s: bound %v in BENCHMARK.json, %v in spec.go", kind, m.name, g.Bound, m.bound)
			}
		}
	}
	check("end-to-end", file.EndToEnd, endToEnd, true)
	check("per-layer", file.PerLayer, perLayer, false)
}
