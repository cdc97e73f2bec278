package shard

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"forestview/internal/faultline"
	"forestview/internal/golem"
	"forestview/internal/spell"
)

// TestScatterChaosZeroDegraded is the chaos acceptance gate: a 3-shard
// R=2 fleet under deterministic fault injection — one shard drawing the
// full fault menu (5xx, resets, truncated bodies, stalls), another slowed
// but healthy — serves every query non-degraded at golden parity. The
// topology makes this a structural guarantee, not a timing accident:
// every ownership group {0,1},{0,2},{1,2} contains a member that either
// never faults (shard-0) or only slows down (shard-2), so failover,
// retry and the scavenge pass always have somewhere correct to go,
// regardless of goroutine interleaving. Flaking here means a robustness
// bug, not an unlucky seed.
func TestScatterChaosZeroDegraded(t *testing.T) {
	f := newScatterFixtureR(t, 3, 2)
	inj := faultline.New(20260808)
	c, servers := f.start(t, Config{
		Deadline:    2 * time.Second,
		Replication: 2,
		Client:      &http.Client{Transport: inj.Wrap(nil)},
	})
	host := func(i int) string { return strings.TrimPrefix(servers[i].URL, "http://") }
	inj.SetRules(
		// shard-1: every other request draws the next fault in the cycle.
		faultline.Rule{Host: host(1), Every: 2,
			Kinds: []faultline.Kind{faultline.Err5xx, faultline.Reset, faultline.Truncate, faultline.Stall},
			Delay: 200 * time.Millisecond},
		// shard-2: slow but correct — latency well under the deadline.
		faultline.Rule{Host: host(2), Every: 3,
			Kinds: []faultline.Kind{faultline.Latency},
			Delay: 30 * time.Millisecond},
	)

	opt := spell.Options{MaxGenes: 30}
	want, err := f.full.Search(f.query, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		res, meta, err := c.SearchCtx(context.Background(), f.query, opt)
		if err != nil {
			t.Fatalf("query %d under chaos: %v", i, err)
		}
		if meta.Degraded {
			t.Fatalf("query %d degraded (%d/%d shards) — a fault leaked past failover", i, meta.ShardsOK, meta.ShardsTotal)
		}
		assertParity(t, res, want)
	}

	// The gate must prove faults actually fired — a silent injector would
	// make this test vacuous.
	counts := inj.Counts()
	if inj.Total() == 0 {
		t.Fatal("injector fired no faults")
	}
	for _, kind := range []string{"err5xx", "reset"} {
		if counts[kind] == 0 {
			t.Fatalf("fault kind %s never fired: %v", kind, counts)
		}
	}

	// And the coordinator must have seen (and absorbed) real trouble.
	snap := c.Stats()
	var faultyErrors int64
	for _, s := range snap.Shards {
		if s.Addr == f.identities[1] {
			faultyErrors = s.Errors
		}
	}
	if faultyErrors == 0 {
		t.Fatalf("faulted shard recorded no errors: %+v", snap.Shards)
	}
}

// TestTruncatedAnswerFailsOver: a search or enrichment answer body cut in
// half is a decode error, never a shorter answer, and at R=2 its groups fail
// over to a replica, so the merge stays exact and non-degraded. Replica
// failover carries them, not the forced retry or scavenge (which reach the
// other replica too): no retry runs, and the surviving replicas record the
// failovers.
func TestTruncatedAnswerFailsOver(t *testing.T) {
	f := newScatterFixtureR(t, 3, 2)
	sel := f.withEnrichers(t, 7)
	inj := faultline.New(1)
	c, servers := f.start(t, Config{Deadline: 2 * time.Second, Replication: 2, Client: &http.Client{Transport: inj.Wrap(nil)}})
	cut := strings.TrimPrefix(servers[1].URL, "http://")
	inj.SetRules(faultline.Rule{Host: cut, Every: 1, Kinds: []faultline.Kind{faultline.Truncate}})

	direct := &httpBackend{client: &http.Client{Transport: inj.Wrap(nil)}, resolve: func(string) string { return servers[1].URL }, deadline: 2 * time.Second}
	if a, err := direct.Search(context.Background(), "", &SearchRequest{Query: f.query}); err == nil || !strings.Contains(err.Error(), "decoding") {
		t.Fatalf("truncated search body: answer %v, err %v; want a decode error", a, err)
	}
	if a, err := direct.Enrich(context.Background(), "", &EnrichRequest{Selection: sel}); err == nil || !strings.Contains(err.Error(), "decoding") {
		t.Fatalf("truncated enrichment body: answer %v, err %v; want a decode error", a, err)
	}

	opt := spell.Options{MaxGenes: 30}
	want, err := f.full.Search(f.query, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, meta, err := c.SearchCtx(context.Background(), f.query, opt)
	if err != nil || meta.Degraded {
		t.Fatalf("search past a truncating shard: %v, %+v", err, meta)
	}
	assertParity(t, res, want)
	wantE, err := f.shards[0].enr.Analyze(sel, golem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resE, meta, err := c.EnrichCtx(context.Background(), sel, golem.Options{})
	if err != nil || meta.Degraded {
		t.Fatalf("enrichment past a truncating shard: %v, %+v", err, meta)
	}
	assertEnrichParity(t, resE.Results, wantE)
	var retries, failovers int64
	for _, sh := range c.Stats().Shards {
		if sh.Addr == f.identities[1] && sh.Errors == 0 {
			t.Fatalf("the truncating shard recorded no failed attempt: %+v (faults %v)", sh, inj.Counts())
		}
		retries += sh.Retries
		if sh.Addr != f.identities[1] {
			failovers += sh.Failovers
		}
	}
	if retries != 0 || failovers == 0 {
		t.Fatalf("%d retries and %d failovers to the surviving replicas, want 0 and at least 1: %+v", retries, failovers, c.Stats().Shards)
	}
}
