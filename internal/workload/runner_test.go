package workload

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// checkSeqOrder asserts the Run contract every caller indexes by: envelope
// i is op i of the plan, so the result is a prefix of the plan with no
// gaps, duplicates or reordering.
func checkSeqOrder(t *testing.T, plan *Plan, envs []Envelope) {
	t.Helper()
	if len(envs) > len(plan.Ops) {
		t.Fatalf("%d envelopes for %d ops", len(envs), len(plan.Ops))
	}
	for i, e := range envs {
		op := plan.Ops[i]
		if e.Seq != i || e.Endpoint != op.Endpoint || e.Path != op.Path || e.SchedMS != ms(op.At) {
			t.Fatalf("envelope %d = %+v does not match op %+v", i, e, op)
		}
	}
}

// TestRunOpenLoop replays a short plan against a trivial server and checks
// the open-loop contract: one envelope per op in Seq order, send times
// tracking the schedule (not the server), and header fields relayed into
// envelopes.
func TestRunOpenLoop(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasPrefix(r.URL.Path, "/api/search"):
			w.Header().Set("X-Forestview-Cache", "hit")
			w.Header().Set("X-Forestview-Shards-Ok", "1")
			w.Header().Set("X-Forestview-Shards-Total", "2")
			w.Header().Set("X-Forestview-Degraded", "true")
		case strings.HasPrefix(r.URL.Path, "/api/enrich"):
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		_, _ = w.Write([]byte("{}"))
	}))
	defer srv.Close()

	spec := Spec{
		Rate:     200,
		Duration: time.Second,
		Seed:     7,
		Mix:      Mix{Search: 2, Enrich: 1, Stats: 1},
		Genes:    testGenes(50),
	}
	plan, err := NewPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	envs := Run(context.Background(), plan, srv.URL)
	if len(envs) != len(plan.Ops) {
		t.Fatalf("%d envelopes for %d ops", len(envs), len(plan.Ops))
	}
	checkSeqOrder(t, plan, envs)
	for _, e := range envs {
		// Open-loop: against an instant server the generator must track its
		// own schedule closely. 250ms of slack absorbs CI scheduling noise.
		if late := e.LatencyMS - e.ServiceMS; late < 0 || late > 250 {
			t.Fatalf("seq %d sent %vms after its scheduled arrival", e.Seq, late)
		}
		if e.ServiceMS < 0 {
			t.Fatalf("seq %d negative timing: %+v", e.Seq, e)
		}
		switch e.Endpoint {
		case "search":
			if e.Status != 200 || e.Cache != "hit" || e.ShardsOK != 1 || e.ShardsTotal != 2 || !e.Degraded {
				t.Fatalf("search envelope missing relayed headers: %+v", e)
			}
		case "enrich":
			if e.Status != http.StatusServiceUnavailable {
				t.Fatalf("enrich status %d", e.Status)
			}
		case "stats":
			if e.Status != 200 || e.Cache != "" || e.Degraded {
				t.Fatalf("stats envelope: %+v", e)
			}
		}
	}
}

// TestRunTransportError: an unreachable target yields envelopes with
// status 0 and an error string, one per op as ever.
func TestRunTransportError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.Close() // nothing listens anymore

	plan, err := NewPlan(Spec{Rate: 100, Duration: 100 * time.Millisecond, Seed: 1, Mix: Mix{Stats: 1}})
	if err != nil {
		t.Fatal(err)
	}
	envs := Run(context.Background(), plan, srv.URL)
	if len(envs) == 0 || len(envs) != len(plan.Ops) {
		t.Fatalf("%d envelopes for %d ops", len(envs), len(plan.Ops))
	}
	for _, e := range envs {
		if e.Status != 0 || e.Error == "" {
			t.Fatalf("expected transport error envelope, got %+v", e)
		}
	}
}

// TestRunCanceled: canceling the context stops issuing, and the call
// returns the envelopes already earned: a proper prefix of the plan, still
// one per issued op and in Seq order.
func TestRunCanceled(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("{}"))
	}))
	defer srv.Close()

	plan, err := NewPlan(Spec{Rate: 50, Duration: 10 * time.Second, Seed: 1, Mix: Mix{Stats: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	envs := Run(ctx, plan, srv.URL)
	if len(envs) == 0 || len(envs) >= len(plan.Ops) {
		t.Fatalf("canceled run returned %d of %d envelopes", len(envs), len(plan.Ops))
	}
	checkSeqOrder(t, plan, envs)
}

// TestRunReusesConnections: a run whose requests overlap keeps using the
// connections its busiest moment opened, and leaves none behind. Over
// http.DefaultTransport (two idle connections per host, shared by the
// whole process) every completion past the second closes its connection
// and the next arrival dials again — a dial for every second or third op
// — and the two idle ones outlive the run, and the topology it was aimed
// at.
func TestRunReusesConnections(t *testing.T) {
	var dialed, open, inflight, peak atomic.Int64
	hs := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inflight.Add(1)
		defer inflight.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(20 * time.Millisecond)
		_, _ = w.Write([]byte("{}"))
	}))
	hs.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			dialed.Add(1)
			open.Add(1)
		case http.StateClosed, http.StateHijacked:
			open.Add(-1)
		}
	}
	hs.Start()
	defer hs.Close()

	// 300/s against a 20ms handler: about six requests in flight throughout.
	plan, err := NewPlan(Spec{Rate: 300, Duration: time.Second, Seed: 3, Mix: Mix{Stats: 1}})
	if err != nil {
		t.Fatal(err)
	}
	envs := Run(context.Background(), plan, hs.URL)
	for _, e := range envs {
		if e.Status != 200 {
			t.Fatalf("envelope failed: %+v", e)
		}
	}
	if peak.Load() < 3 {
		t.Fatalf("peak concurrency %d: requests never overlapped enough to outgrow a two-connection idle pool", peak.Load())
	}
	// A request that finds the pool empty dials, and may then be handed a
	// connection another request just returned, leaving its own dial idle
	// in the pool: dials can exceed the server-side peak, but stay of its
	// order rather than of the op count's.
	if d, limit := dialed.Load(), 2*peak.Load(); d > limit {
		t.Fatalf("%d connections dialed for %d ops at peak concurrency %d, want <= %d", d, len(envs), peak.Load(), limit)
	}
	deadline := time.Now().Add(2 * time.Second)
	for open.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := open.Load(); n != 0 {
		t.Fatalf("%d connections still open after Run returned", n)
	}
}
