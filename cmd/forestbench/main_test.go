package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"forestview/internal/workload"
)

// readArtifact decodes a gate's <out>-<label>.jsonl envelope artifact.
func readArtifact(t *testing.T, path string) []workload.Envelope {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var envs []workload.Envelope
	for dec := json.NewDecoder(f); ; {
		var e workload.Envelope
		if err := dec.Decode(&e); errors.Is(err, io.EOF) {
			return envs
		} else if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		envs = append(envs, e)
	}
}

// TestSmokeProfileShard2Fleet is the fleet E2E: the real CLI smoke profile
// pushed through a coordinator + 2 shard-server topology. Zero 5xx, and
// every envelope carries the exact shard tally its endpoint promises.
func TestSmokeProfileShard2Fleet(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "sm")
	var stdout, stderr bytes.Buffer
	code := runMain([]string{
		"-profile=smoke", "-topology=shard2",
		"-rate", "30", "-step-duration", "800ms", "-out", prefix,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("smoke exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	envs := readArtifact(t, prefix+"-shard2.jsonl")
	if len(envs) == 0 {
		t.Fatal("smoke produced no envelopes")
	}
	searches, enriches := 0, 0
	for _, e := range envs {
		if e.Status >= 500 || e.Status == 0 {
			t.Fatalf("envelope failed: %+v", e)
		}
		switch e.Endpoint {
		case "search":
			searches++
			if e.ShardsOK != 2 || e.ShardsTotal != 2 || e.Degraded {
				t.Fatalf("search envelope shard tally %d/%d degraded=%t, want 2/2 false: %+v",
					e.ShardsOK, e.ShardsTotal, e.Degraded, e)
			}
			if e.Cache == "" {
				t.Fatalf("search envelope without cache disposition: %+v", e)
			}
		case "enrich":
			// Both shards own datasets at R=1, so the enrich scatter has
			// two single-owner groups and both shards contribute tallies.
			enriches++
			if e.ShardsOK != 2 || e.ShardsTotal != 2 || e.Degraded {
				t.Fatalf("enrich envelope shard tally %d/%d degraded=%t, want 2/2 false: %+v",
					e.ShardsOK, e.ShardsTotal, e.Degraded, e)
			}
			if e.Cache == "" {
				t.Fatalf("enrich envelope without cache disposition: %+v", e)
			}
		case "stats":
			if e.ShardsOK != 0 || e.ShardsTotal != 0 {
				t.Fatalf("stats envelope has shard headers: %+v", e)
			}
		default:
			t.Fatalf("unexpected endpoint %q in shard2 smoke", e.Endpoint)
		}
	}
	if searches == 0 || enriches == 0 {
		t.Fatalf("endpoint coverage: %d searches, %d enriches", searches, enriches)
	}
	// The summary made it to stdout and to the artifact file.
	rep, err := os.ReadFile(prefix + "-shard2-report.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{stdout.String(), string(rep)} {
		for _, want := range []string{"== shard2:", "requests:", "p50", "search", "enrich"} {
			if !strings.Contains(text, want) {
				t.Fatalf("summary missing %q:\n%s", want, text)
			}
		}
	}
}

// TestSmokeProfileSingle: the single-daemon smoke exercises all four
// endpoints and passes its own gate.
func TestSmokeProfileSingle(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "sm")
	var stdout, stderr bytes.Buffer
	code := runMain([]string{
		"-profile=smoke", "-topology=single",
		"-rate", "30", "-step-duration", "800ms", "-out", prefix,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("smoke exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	envs := readArtifact(t, prefix+"-single.jsonl")
	byEndpoint := map[string]int{}
	for _, e := range envs {
		if e.Status >= 500 || e.Status == 0 {
			t.Fatalf("envelope failed: %+v", e)
		}
		byEndpoint[e.Endpoint]++
	}
	for _, ep := range []string{"search", "heatmap", "enrich", "stats"} {
		if byEndpoint[ep] == 0 {
			t.Fatalf("no %s envelopes in %v", ep, byEndpoint)
		}
	}
}

// runKillingShard1 replays a seeded 3 s plan of mix at 50 req/s against tp,
// kills shard-1 at killAt, and returns one envelope per op.
func runKillingShard1(t *testing.T, tp *topology, seed int64, mix workload.Mix, killAt time.Duration) []workload.Envelope {
	t.Helper()
	plan, err := workload.NewPlan(workload.Spec{Rate: 50, Duration: 3 * time.Second, Seed: seed, Mix: mix, Genes: tp.genes})
	if err != nil {
		t.Fatal(err)
	}
	timer := time.AfterFunc(killAt, func() { tp.fleet.Kill(1) })
	defer timer.Stop()
	envs := workload.Run(context.Background(), plan, tp.url)
	if len(envs) != len(plan.Ops) {
		t.Fatalf("%d envelopes for %d ops", len(envs), len(plan.Ops))
	}
	return envs
}

// TestShardKillMidRun: kill one of two shard servers mid-run. The
// coordinator must degrade — every response after the kill is a 200 with
// Degraded=true over the 1 surviving shard — and never error. The
// coordinator cache is tiny so post-kill searches genuinely re-scatter
// instead of replaying cached full merges.
func TestShardKillMidRun(t *testing.T) {
	tp, err := newTopology("shard2", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.close()

	const (
		killAt   = 1500 * time.Millisecond
		marginMS = 500
	)
	envs := runKillingShard1(t, tp, 5, workload.Mix{Search: 1}, killAt)
	killMS := float64(killAt / time.Millisecond)
	var healthy, degraded int
	for _, e := range envs {
		// The invariant under fire: never an error, only flagged degradation.
		if e.Status != 200 {
			t.Fatalf("non-200 under shard kill: %+v", e)
		}
		if e.ShardsTotal != 2 {
			t.Fatalf("shard tally total %d, want 2: %+v", e.ShardsTotal, e)
		}
		switch {
		case e.SchedMS+e.LatencyMS < killMS:
			// Completed before the kill: a full merge.
			healthy++
			if e.Degraded || e.ShardsOK != 2 {
				t.Fatalf("pre-kill envelope degraded: %+v", e)
			}
		case e.SchedMS > killMS+marginMS:
			// Scheduled well after the kill: must be a flagged survivor merge.
			degraded++
			if !e.Degraded || e.ShardsOK != 1 {
				t.Fatalf("post-kill envelope not degraded: %+v", e)
			}
		}
	}
	if healthy == 0 || degraded == 0 {
		t.Fatalf("kill not straddled: %d healthy, %d degraded of %d", healthy, degraded, len(envs))
	}
}

// TestReplicatedFleetKillMidRun is the replication acceptance proof: a
// 3-shard fleet at replication 2 loses one shard mid-run, and because
// every dataset still has a live owner, the coordinator keeps answering
// full merges — zero 5xx, zero transport errors, zero degraded envelopes,
// before and after the kill, for searches and enrichments alike. The tiny
// coordinator cache forces every post-kill request to genuinely
// re-scatter through replica failover.
func TestReplicatedFleetKillMidRun(t *testing.T) {
	tp, err := newFleetTopology("fleet3r2", 3, 2, 6, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.close()

	const killAt = 1200 * time.Millisecond
	envs := runKillingShard1(t, tp, 9, workload.Mix{Search: 1, Enrich: 1}, killAt)
	killMS := float64(killAt / time.Millisecond)
	postKill := map[string]int{}
	for _, e := range envs {
		if e.Status != 200 {
			t.Fatalf("non-200 under replicated shard kill: %+v", e)
		}
		if e.Degraded {
			t.Fatalf("degraded merge despite replication: %+v", e)
		}
		if e.ShardsTotal != 3 {
			t.Fatalf("shard tally total %d, want 3: %+v", e.ShardsTotal, e)
		}
		if e.SchedMS > killMS {
			postKill[e.Endpoint]++
		}
	}
	// Both scattered endpoints must straddle the kill, or the zero-degraded
	// claim proved nothing about failover.
	if postKill["search"] == 0 || postKill["enrich"] == 0 {
		t.Fatalf("kill not straddled per endpoint: %v of %d envelopes", postKill, len(envs))
	}
}

// TestNoSubcommands: forestbench is a gate runner. The "run" and
// "analyze" subcommands it once had (and any other stray argument) get the
// usage text and exit 2, not a silently ignored word and a default gate.
func TestNoSubcommands(t *testing.T) {
	for _, args := range [][]string{
		{"run", "-target", "http://127.0.0.1:1"},
		{"analyze", "-in", "x.jsonl"},
		{"-profile=smoke", "-topology=single", "analyze"},
		{},
	} {
		var stdout, stderr bytes.Buffer
		if code := runMain(args, &stdout, &stderr); code != 2 {
			t.Fatalf("%v exited %d, want 2\nstderr:\n%s", args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), "Usage of forestbench") || !strings.Contains(stderr.String(), "-profile") {
			t.Fatalf("%v: no usage text on stderr:\n%s", args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Fatalf("%v wrote to stdout:\n%s", args, stdout.String())
		}
	}
}

// TestGate: each way a run can fail its gate, and the clean run that does
// not.
func TestGate(t *testing.T) {
	clean := workload.Tally{Requests: 100, Errors4xx: 3, Latency: workload.Quantiles{P50: 5, P99: 80, Max: 900}}
	with := func(mutate func(*workload.Tally)) workload.Tally {
		tl := clean
		mutate(&tl)
		return tl
	}
	for _, tc := range []struct {
		name           string
		tally          workload.Tally
		maxP99MS       float64
		forbidDegraded bool
		wantErr        string // empty = passes
	}{
		{"clean", clean, 100, true, ""},
		{"no envelopes", workload.Tally{}, 100, false, "no envelopes"},
		{"one 5xx", with(func(tl *workload.Tally) { tl.Errors5xx = 1 }), 100, false, "1 5xx"},
		{"one transport error", with(func(tl *workload.Tally) { tl.Transport = 1 }), 100, false, "1 transport"},
		{"p99 over bound", clean, 79.9, false, "p99 80.0ms exceeds bound 79.9ms"},
		{"p99 at bound", clean, 80, false, ""},
		{"no p99 bound", clean, 0, false, ""},
		{"degraded, forbidden", with(func(tl *workload.Tally) { tl.Degraded = 2 }), 100, true, "2 degraded"},
		{"degraded, allowed", with(func(tl *workload.Tally) { tl.Degraded = 2 }), 100, false, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := gate(&workload.Summary{Tally: tc.tally}, tc.maxP99MS, tc.forbidDegraded)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("gate failed a passing run: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("gate error %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestPanwalkProfile runs the full prefetch-off/prefetch-on panwalk
// comparison through the CLI: both runs must gate clean, the ON run must
// serve prefetched tiles and save cold renders, and both artifacts of both
// runs must exist.
func TestPanwalkProfile(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "pw")
	var stdout, stderr bytes.Buffer
	// Rate 25 leaves the render pool idle often enough that the
	// prefetcher stays ahead of the walk even with the race detector
	// slowing every render (speculation yields whenever foreground work
	// is queued, so an overdriven walk starves it by design).
	code := runMain([]string{
		"-profile=panwalk",
		"-rate", "25", "-step-duration", "2s", "-out", prefix,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("panwalk exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	misses := map[string]int{}
	for _, label := range []string{"prefetch-off", "prefetch-on"} {
		envs := readArtifact(t, prefix+"-"+label+".jsonl")
		prefetched := 0
		for _, e := range envs {
			if e.Endpoint != "heatmap" {
				t.Fatalf("%s: non-heatmap envelope %+v", label, e)
			}
			switch e.Cache {
			case "prefetched":
				prefetched++
			case "miss":
				misses[label]++
			}
		}
		if label == "prefetch-off" && prefetched != 0 {
			t.Fatalf("prefetch-off run disclosed %d prefetched tiles", prefetched)
		}
		if label == "prefetch-on" && prefetched == 0 {
			t.Fatal("prefetch-on run disclosed no prefetched tiles")
		}
		if _, err := os.Stat(prefix + "-" + label + "-report.txt"); err != nil {
			t.Fatal(err)
		}
	}
	if misses["prefetch-on"] >= misses["prefetch-off"] {
		t.Fatalf("cold renders: %d with prefetch, %d without", misses["prefetch-on"], misses["prefetch-off"])
	}
	if !strings.Contains(stdout.String(), "panwalk gate:") {
		t.Fatalf("missing gate summary in stdout:\n%s", stdout.String())
	}
}
