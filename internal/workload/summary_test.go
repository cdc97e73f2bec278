package workload

import (
	"bytes"
	"strings"
	"testing"
)

// TestSummarizeQuantiles: nearest-rank percentiles over a known sample.
func TestSummarizeQuantiles(t *testing.T) {
	envs := make([]Envelope, 100)
	for i := range envs {
		// Descending, so the fold has to sort.
		envs[i] = Envelope{Endpoint: "search", Status: 200, LatencyMS: float64(100 - i), SchedMS: float64(i)}
	}
	sum := Summarize(envs)
	if sum.Latency != (Quantiles{P50: 50, P95: 95, P99: 99, Max: 100}) {
		t.Fatalf("quantiles %+v", sum.Latency)
	}
	ep := sum.Endpoints["search"]
	if ep == nil || ep.Requests != 100 || ep.Latency.P99 != 99 {
		t.Fatalf("endpoint tally %+v", ep)
	}
	if empty := Summarize(nil); empty.Requests != 0 || empty.Latency != (Quantiles{}) || len(empty.Endpoints) != 0 {
		t.Fatalf("empty summary %+v", empty)
	}
}

// TestSummarizeCounters: degraded, transport errors, 4xx, 5xx and cache
// dispositions are tallied where they belong, overall and per endpoint.
func TestSummarizeCounters(t *testing.T) {
	envs := []Envelope{
		{Endpoint: "search", Status: 200, Cache: "miss"},
		{Endpoint: "search", Status: 200, Cache: "coalesced", Degraded: true},
		{Endpoint: "search", Status: 0, Error: "connection refused"},
		{Endpoint: "enrich", Status: 422},
		{Endpoint: "enrich", Status: 503},
		{Endpoint: "heatmap", Status: 200, Cache: "hit"},
		{Endpoint: "heatmap", Status: 200, Cache: "prefetched"},
		{Endpoint: "heatmap", Status: 200, Cache: "miss"},
		{Endpoint: "heatmap", Status: 200, Cache: "miss"},
	}
	sum := Summarize(envs)
	if sum.Requests != 9 || sum.Degraded != 1 || sum.Transport != 1 || sum.Errors4xx != 1 || sum.Errors5xx != 1 {
		t.Fatalf("summary %+v", sum.Tally)
	}
	if sum.Hits != 1 || sum.Misses != 3 || sum.Coalesced != 1 || sum.Prefetched != 1 {
		t.Fatalf("overall dispositions %+v", sum.Tally)
	}
	s := sum.Endpoints["search"]
	if s.Misses != 1 || s.Coalesced != 1 || s.Hits != 0 || s.Transport != 1 || s.Degraded != 1 {
		t.Fatalf("search endpoint %+v", s)
	}
	if e := sum.Endpoints["enrich"]; e.Errors4xx != 1 || e.Errors5xx != 1 || e.WarmShare() != 0 {
		t.Fatalf("enrich endpoint %+v", e)
	}
	if h := sum.Endpoints["heatmap"]; h.Hits != 1 || h.Prefetched != 1 || h.Misses != 2 || h.WarmShare() != 0.5 {
		t.Fatalf("heatmap endpoint %+v (warm %v)", h, h.WarmShare())
	}
}

// TestSummaryWriteText smoke-checks the terminal rendering.
func TestSummaryWriteText(t *testing.T) {
	envs := []Envelope{
		{Endpoint: "search", Status: 200, LatencyMS: 10, Cache: "hit"},
		{Endpoint: "search", Status: 503, LatencyMS: 30, Cache: "miss"},
		{Endpoint: "stats", Status: 200, LatencyMS: 1},
	}
	var buf bytes.Buffer
	Summarize(envs).WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"requests: 3  5xx: 1", "p99 30.0ms", "search", "1/1/0/0 (warm 50%)", "stats"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary output missing %q:\n%s", want, out)
		}
	}
	// An endpoint that discloses no cache disposition claims no warm share.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "stats") && strings.Contains(line, "warm") {
			t.Fatalf("stats line claims a warm share: %q", line)
		}
	}
}
