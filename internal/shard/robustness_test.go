package shard

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"forestview/internal/spell"
)

func TestBackoffDelaySchedule(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second, Factor: 2}
	half := func() float64 { return 0.5 } // jitter multiplier exactly 1.0
	for attempt, want := range []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second, // capped
	} {
		if got := b.Delay(attempt, half); got != want {
			t.Errorf("Delay(%d) = %v, want %v", attempt, got, want)
		}
	}
	// Jitter spans [0.5, 1.5) of the grown delay.
	if got := b.Delay(0, func() float64 { return 0 }); got != 50*time.Millisecond {
		t.Errorf("low jitter Delay(0) = %v, want 50ms", got)
	}
	if got := b.Delay(0, func() float64 { return 0.999 }); got <= 100*time.Millisecond || got >= 150*time.Millisecond {
		t.Errorf("high jitter Delay(0) = %v, want in (100ms, 150ms)", got)
	}
	if got := b.Delay(2, nil); got != 400*time.Millisecond {
		t.Errorf("nil-rnd Delay(2) = %v, want 400ms", got)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	const threshold = 3
	window := func(opens int) time.Duration { return time.Duration(opens+1) * time.Second }
	now := time.Unix(1000, 0)
	b := &breaker{}

	// Closed: failures below the threshold keep attempts flowing.
	for i := 0; i < threshold-1; i++ {
		if ok, _ := b.allow(now, false); !ok {
			t.Fatalf("closed breaker refused attempt %d", i)
		}
		if tripped := b.observe(false, false, now, threshold, window); tripped {
			t.Fatalf("tripped after %d failures, threshold %d", i+1, threshold)
		}
	}
	if ok, _ := b.allow(now, false); !ok {
		t.Fatal("closed breaker refused attempt at threshold-1 failures")
	}
	if !b.observe(false, false, now, threshold, window) {
		t.Fatal("did not trip at the threshold")
	}
	if state, trips := b.snapshot(); state != "open" || trips != 1 {
		t.Fatalf("after trip: state=%s trips=%d", state, trips)
	}

	// Open: refused inside the window, admitted as a probe after it.
	if ok, _ := b.allow(now.Add(500*time.Millisecond), false); ok {
		t.Fatal("open breaker admitted inside the window")
	}
	// A straggler failure while open neither re-trips nor extends.
	if b.observe(false, false, now.Add(100*time.Millisecond), threshold, window) {
		t.Fatal("straggler failure re-tripped an open breaker")
	}
	probeAt := now.Add(window(0))
	ok, probe := b.allow(probeAt, false)
	if !ok || !probe {
		t.Fatalf("post-window allow = (%v, %v), want probe admission", ok, probe)
	}
	if ok, _ := b.allow(probeAt, false); ok {
		t.Fatal("second concurrent probe admitted")
	}
	// Failed probe: re-open with the grown window.
	if !b.observe(false, true, probeAt, threshold, window) {
		t.Fatal("failed probe did not re-trip")
	}
	if ok, _ := b.allow(probeAt.Add(window(0)), false); ok {
		t.Fatal("admitted inside the grown window")
	}
	probeAt2 := probeAt.Add(window(1))
	if ok, probe := b.allow(probeAt2, false); !ok || !probe {
		t.Fatal("second probe refused after the grown window")
	}
	// Successful probe closes and resets the growth.
	b.observe(true, true, probeAt2, threshold, window)
	if state, trips := b.snapshot(); state != "closed" || trips != 2 {
		t.Fatalf("after successful probe: state=%s trips=%d", state, trips)
	}
	if ok, probe := b.allow(probeAt2, false); !ok || probe {
		t.Fatal("closed breaker not admitting plain attempts")
	}

	// lastResort forces admission straight through an open window.
	for i := 0; i < threshold; i++ {
		b.observe(false, false, probeAt2, threshold, window)
	}
	if ok, _ := b.allow(probeAt2, false); ok {
		t.Fatal("expected open after re-trip")
	}
	ok, probe = b.allow(probeAt2, true)
	if !ok || !probe {
		t.Fatalf("lastResort allow = (%v, %v), want forced probe", ok, probe)
	}
	// A canceled probe releases the slot without judging the shard.
	b.clearProbe()
	if ok, probe := b.allow(probeAt2, true); !ok || !probe {
		t.Fatal("probe slot not released by clearProbe")
	}
}

// TestScatterBreakerOpensOnDeadReplica kills one replica of an R=2 fleet
// and drives enough queries that its breaker trips: subsequent scatters
// skip the dead shard (breaker_skips) while every merge stays full.
func TestScatterBreakerOpensOnDeadReplica(t *testing.T) {
	f := newScatterFixtureR(t, 3, 2)
	c, servers := f.start(t, Config{Deadline: time.Second, Replication: 2})
	servers[1].Close()

	for i := 0; i < 12; i++ {
		res, meta, err := c.SearchCtx(context.Background(), f.query, spell.Options{MaxGenes: 30})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if meta.Degraded {
			t.Fatalf("query %d degraded with a live replica per group", i)
		}
		if len(res.Datasets) == 0 {
			t.Fatalf("query %d: empty result", i)
		}
	}

	snap := c.Stats()
	var dead ShardSnapshot
	for _, s := range snap.Shards {
		if s.Addr == f.identities[1] {
			dead = s
		}
	}
	if dead.Errors == 0 {
		t.Fatal("dead shard recorded no errors")
	}
	if dead.BreakerTrips == 0 {
		t.Fatalf("dead shard breaker never tripped: %+v", dead)
	}
	if dead.BreakerSkips == 0 {
		t.Fatalf("open breaker never skipped an attempt: %+v", dead)
	}
	if dead.Breaker != "open" && dead.Breaker != "half-open" {
		t.Fatalf("dead shard breaker state = %q", dead.Breaker)
	}
}

// TestScatterBlackHoledReplica: a replica that takes requests and never
// answers costs each scatter that picks it one attempt Deadline — never
// two, never a degraded merge — until its breaker opens; while it is open
// the walk skips the replica and scatters finish well inside the Deadline.
func TestScatterBlackHoledReplica(t *testing.T) {
	f := newScatterFixtureR(t, 2, 2)
	// Whichever shard the very first request reaches black-holes every
	// search request from then on; the other is healthy. With R=2 both own
	// every group, and p2c alternates the primaries, so the stalled shard
	// is some group's pick in every scatter until its breaker opens.
	var stalled atomic.Int32 // 1 + index of the stalled shard, 0 until the first request
	for si, sh := range f.shards {
		sh.behave = func(n int64, w http.ResponseWriter, r *http.Request) bool {
			stalled.CompareAndSwap(0, int32(si+1))
			if stalled.Load() != int32(si+1) {
				return false
			}
			_, _ = io.Copy(io.Discard, r.Body) // unblock disconnect detection
			<-r.Context().Done()
			return true
		}
	}
	const deadline = 250 * time.Millisecond
	c, _ := f.start(t, Config{Deadline: deadline, Replication: 2})
	want, err := f.full.Search(f.query, spell.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stalledStats := func() ShardSnapshot {
		for _, s := range c.Stats().Shards {
			if s.Addr == f.identities[stalled.Load()-1] {
				return s
			}
		}
		t.Fatal("stalled shard missing from stats")
		return ShardSnapshot{}
	}
	skipped := 0 // scatters that never reached the stalled shard
	for i := 0; i < 16; i++ {
		var before ShardSnapshot
		if i > 0 {
			before = stalledStats()
		}
		t0 := time.Now()
		got, meta, err := c.SearchCtx(context.Background(), f.query, spell.Options{})
		elapsed := time.Since(t0)
		if err != nil || meta.Degraded || meta.GroupsOK != meta.GroupsTotal {
			t.Fatalf("scatter %d: %v after %v, meta %+v", i, err, elapsed, meta)
		}
		assertParity(t, got, want)
		if elapsed > 2*deadline {
			t.Fatalf("scatter %d took %v: more than one attempt Deadline (%v)", i, elapsed, deadline)
		}
		after := stalledStats()
		if i > 0 && after.Requests == before.Requests && after.BreakerSkips > before.BreakerSkips {
			skipped++
			if elapsed > deadline/2 {
				t.Fatalf("scatter %d skipped the open breaker and still took %v", i, elapsed)
			}
		}
	}
	s := stalledStats()
	if s.Errors == 0 || s.BreakerTrips == 0 || s.BreakerSkips == 0 || skipped == 0 {
		t.Fatalf("breaker never tripped and skipped the stalled shard (%d scatters skipped it): %+v", skipped, s)
	}
}

// TestScatterFloorProbesOpenBreaker: a group whose every replica's breaker
// is open is not failed untried. The walk's forced step probes the primary
// through its breaker at once (the availability floor, which counts no
// retry), and a shard that has recovered answers it in full.
func TestScatterFloorProbesOpenBreaker(t *testing.T) {
	f := newScatterFixture(t, 2) // R=1: each group has one replica
	c, _ := f.start(t, Config{Deadline: 2 * time.Second})
	// shard-0's breaker opened on failures that have since cleared, with a
	// window that outlasts the test.
	b := &c.counterFor(f.identities[0]).breaker
	for i := 0; i < breakerThreshold; i++ {
		b.observe(false, false, time.Now(), breakerThreshold, func(int) time.Duration { return time.Hour })
	}
	want, err := f.full.Search(f.query, spell.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, meta, err := c.SearchCtx(context.Background(), f.query, spell.Options{})
	if err != nil || meta.Degraded {
		t.Fatalf("scatter past an open breaker: %v, meta %+v", err, meta)
	}
	assertParity(t, got, want)
	for _, s := range c.Stats().Shards {
		if s.Addr == f.identities[0] && (s.BreakerSkips != 1 || s.Retries != 0 || s.Breaker != "closed") {
			t.Fatalf("the floor's probe: %+v, want one skip, no retry, a closed breaker", s)
		}
	}
}

// TestInfoFailureCooldownOption pins the info failure cooldown: inside
// infoFailureCooldown a failed round answers callers without probing, after
// it a caller probes again, and the first successful round clears the
// failure state.
func TestInfoFailureCooldownOption(t *testing.T) {
	var probes atomic.Int64
	var healthy atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc(InfoPath, func(w http.ResponseWriter, r *http.Request) {
		probes.Add(1)
		if !healthy.Load() {
			http.Error(w, "sick", http.StatusInternalServerError)
			return
		}
		body, _ := (&Info{
			GeneIDs:    []string{"g1"},
			DatasetIDs: []string{"d1"}, AllDatasetIDs: []string{"d1"},
		}).AppendBinary(nil)
		w.Header().Set("Content-Type", AnswerContentType)
		_, _ = w.Write(body)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	const cooldown = 120 * time.Millisecond
	defer func(d time.Duration) { infoFailureCooldown = d }(infoFailureCooldown)
	infoFailureCooldown = cooldown
	c, err := NewCoordinator(Config{
		Shards:   []string{"s0"},
		Resolve:  func(string) string { return srv.URL },
		Deadline: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := c.Info(context.Background()); err == nil {
		t.Fatal("Info succeeded against a sick shard")
	}
	n := probes.Load()
	if n == 0 {
		t.Fatal("no probe issued")
	}
	// Inside the window: cached error, no new probe.
	if _, err := c.Info(context.Background()); err == nil {
		t.Fatal("Info succeeded from inside the cooldown")
	}
	if got := probes.Load(); got != n {
		t.Fatalf("probe inside the cooldown window: %d -> %d", n, got)
	}
	// After the window: a fresh probe round.
	time.Sleep(cooldown + 20*time.Millisecond)
	if _, err := c.Info(context.Background()); err == nil {
		t.Fatal("Info succeeded against a still-sick shard")
	}
	if got := probes.Load(); got == n {
		t.Fatal("cooldown expiry did not re-probe")
	}

	// First success clears the failure state entirely.
	healthy.Store(true)
	time.Sleep(cooldown + 20*time.Millisecond)
	if _, err := c.Info(context.Background()); err != nil {
		t.Fatalf("Info after recovery: %v", err)
	}
	c.infoMu.Lock()
	cleared := c.infoErr == nil && c.infoFailedAt.IsZero()
	c.infoMu.Unlock()
	if !cleared {
		t.Fatal("success did not clear the info failure state")
	}

}

// TestInfoStatusLeavesDrainMarkAlone: a shard's advertised status is for
// operators. However a probe round finds it, only SetDraining (the fleet
// admin's "drain") moves the mark, so whether a drained shard is demoted
// never depends on when the coordinator last probed.
func TestInfoStatusLeavesDrainMarkAlone(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc(InfoPath, func(w http.ResponseWriter, r *http.Request) {
		body, _ := (&Info{
			GeneIDs: []string{"g1"}, DatasetIDs: []string{"d1"}, AllDatasetIDs: []string{"d1"},
			Status: StatusDraining,
		}).AppendBinary(nil)
		w.Header().Set("Content-Type", AnswerContentType)
		_, _ = w.Write(body)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c, err := NewCoordinator(Config{
		Shards:   []string{"s0"},
		Resolve:  func(string) string { return srv.URL },
		Deadline: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Info(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := c.DrainingShards(); len(got) != 0 {
		t.Fatalf("a probe of a shard reporting %q marked %v draining", StatusDraining, got)
	}
	c.SetDraining("s0", true)
	if got := c.DrainingShards(); len(got) != 1 || got[0] != "s0" {
		t.Fatalf("DrainingShards after SetDraining = %v", got)
	}
}

// TestOrderReplicasDrainingLast pins the drain demotion: a draining
// replica is ordered last regardless of p2c, and clearing the mark
// restores it to the candidate pool.
func TestOrderReplicasDrainingLast(t *testing.T) {
	c, err := NewCoordinator(Config{Shards: []string{"a", "b", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	owners := []string{"a", "b", "c"}
	c.SetDraining("b", true)
	for i := 0; i < 8; i++ {
		got := c.orderReplicas(owners)
		if got[len(got)-1] != "b" {
			t.Fatalf("draining replica not last: %v", got)
		}
	}
	if got := c.DrainingShards(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("DrainingShards = %v", got)
	}
	c.SetDraining("b", false)
	seen := false
	for i := 0; i < 16 && !seen; i++ {
		got := c.orderReplicas(owners)
		seen = got[0] == "b" || got[1] == "b"
	}
	if !seen {
		t.Fatal("undrained replica never returned to the candidate pool")
	}
}
