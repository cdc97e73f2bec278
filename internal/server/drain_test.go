package server

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"forestview/internal/microarray"
	"forestview/internal/shard"
	"forestview/internal/spell"
	"forestview/internal/synth"
)

// drainTopology is a drain-capable shard fleet in-process: every shard
// boots with its fleet identity, the full membership view, a dataset
// loader over the shared compendium, and the admin token — everything a
// rolling restart needs.
type drainTopology struct {
	dss     []*microarray.Dataset
	names   []string // global dataset catalog
	shards  []string // fleet identities
	servers []*httptest.Server
	srv     []*Server
	query   []string
	drained chan string // OnDrained pings, by shard identity
}

const drainToken = "sesame"

func newDrainTopology(t *testing.T, nShards, repl int) *drainTopology {
	t.Helper()
	u := synth.NewUniverse(200, 8, 71)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 6, MinExperiments: 8, MaxExperiments: 14,
		ActiveFraction: 0.5, Noise: 0.3, Seed: 72,
	})
	names := make([]string, len(dss))
	for i, ds := range dss {
		names[i] = ds.Name
	}
	var shardNames []string
	for i := 0; i < nShards; i++ {
		shardNames = append(shardNames, fmt.Sprintf("shard-%d", i))
	}
	top := &drainTopology{
		dss: dss, names: names, shards: shardNames,
		query:   u.ModuleGeneIDs(2)[:4],
		drained: make(chan string, nShards),
	}
	urls := make(map[string]string, nShards)
	for si, self := range shardNames {
		self := self
		owned := shard.OwnedIndexesR(names, shardNames, self, repl)
		var slice []*microarray.Dataset
		for _, gi := range owned {
			slice = append(slice, dss[gi])
		}
		se, err := spell.NewEngine(slice)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := New(Config{
			Engine:           se,
			ShardIndexes:     owned,
			ShardDatasetIDs:  names,
			ShardSelf:        self,
			ShardFleet:       shardNames,
			ShardReplication: repl,
			ShardRawDatasets: slice,
			ShardLoader: func(_ context.Context, gi int) (*microarray.Dataset, error) {
				return dss[gi], nil
			},
			ShardResolve: func(id string) string { return urls[id] },
			OnDrained:    func() { top.drained <- self },
			FleetToken:   drainToken,
			CacheBytes:   4 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ss.Close)
		hs := httptest.NewServer(ss)
		t.Cleanup(hs.Close)
		top.servers = append(top.servers, hs)
		top.srv = append(top.srv, ss)
		urls[shardNames[si]] = hs.URL
	}
	return top
}

// postJSON drives a token-gated admin endpoint over the real listener.
func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Fleet-Token", drainToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// shardSearch posts one shard search request and returns the response plus
// its cache disposition header.
func shardSearch(t *testing.T, url string, req shard.SearchRequest) (*http.Response, string) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+shard.SearchPath, shard.ContentType, &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var a shard.SearchAnswer
	if resp.StatusCode == http.StatusOK {
		if err := gob.NewDecoder(resp.Body).Decode(&a); err != nil {
			t.Fatal(err)
		}
	}
	return resp, resp.Header.Get(cacheHeader)
}

// TestShardDrainWarmHandoff is the tentpole's server-layer proof: a
// drained shard pushes its warm partials to the post-drain owners, the
// receivers accept (or replay-warm) every entry, and the successor serves
// the drained shard's hot query as a cache hit on first touch.
func TestShardDrainWarmHandoff(t *testing.T) {
	top := newDrainTopology(t, 3, 2)
	survivors := []string{"shard-1", "shard-2"}

	// Warm shard-0 with a hot query (legacy whole-slice request: the warm
	// tracker records the query, not the scope).
	if resp, disp := shardSearch(t, top.servers[0].URL, shard.SearchRequest{Query: top.query}); resp.StatusCode != http.StatusOK || disp != dispMiss {
		t.Fatalf("warming search = %d/%s", resp.StatusCode, disp)
	}

	// Survivors adopt the post-drain topology first (the rolling-restart
	// order): each re-derives its owned slice, loading what it lacked.
	fleetBody := `{"shards":["shard-1","shard-2"],"replication":2}`
	for _, si := range []int{1, 2} {
		resp, body := postJSON(t, top.servers[si].URL+shard.ShardFleetPath, fleetBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("survivor %d reload = %d: %s", si, resp.StatusCode, body)
		}
		var st shardFleetState
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		// R=2 over 2 shards: every survivor owns the whole catalog.
		if st.Held != len(top.dss) {
			t.Fatalf("survivor %d holds %d datasets after reload, want %d (%s)", si, st.Held, len(top.dss), body)
		}
		if st.Reloads != 1 {
			t.Fatalf("survivor %d reloads = %d", si, st.Reloads)
		}
	}

	// Drain shard-0 toward the survivors.
	resp, body := postJSON(t, top.servers[0].URL+shard.DrainPath, fleetBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain = %d: %s", resp.StatusCode, body)
	}
	var dr drainResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Status != shard.StatusDraining || len(dr.PushErrors) != 0 {
		t.Fatalf("drain response: %+v", dr)
	}
	if dr.Pushed+dr.Replayed == 0 {
		t.Fatalf("drain pushed nothing: %+v", dr)
	}

	// OnDrained fired exactly once, for shard-0.
	select {
	case id := <-top.drained:
		if id != "shard-0" {
			t.Fatalf("OnDrained for %q", id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnDrained never fired")
	}

	// The drained shard advertises its state.
	info := shardInfoOf(t, top.servers[0])
	if info.Status != shard.StatusDraining {
		t.Fatalf("drained shard status = %q", info.Status)
	}
	for _, si := range []int{1, 2} {
		if st := shardInfoOf(t, top.servers[si]); st.Status != shard.StatusActive {
			t.Fatalf("survivor %d status = %q", si, st.Status)
		}
	}

	// The successors serve the drained shard's hot query warm: every
	// ownership group of the post-drain topology answers the first group
	// request for it as a cache hit (accepted verbatim or replay-warmed at
	// handoff time — either way, no cold recompute now).
	urls := map[string]string{"shard-1": top.servers[1].URL, "shard-2": top.servers[2].URL}
	for _, owners := range shard.Groups(top.names, survivors, 2) {
		for _, owner := range owners {
			resp, disp := shardSearch(t, urls[owner], shard.SearchRequest{
				Query: top.query, Shards: survivors, Replication: 2, Groups: [][]string{owners},
			})
			if resp.StatusCode != http.StatusOK || disp != dispHit {
				t.Fatalf("post-drain search on %s (group %v) = %d/%s, want 200/hit", owner, owners, resp.StatusCode, disp)
			}
		}
	}

	// So does a batched request — every group of the topology at once, as
	// the coordinator would ask after the switch: each group hit, so the
	// answer says hit.
	for owner, url := range urls {
		resp, disp := shardSearch(t, url, shard.SearchRequest{
			Query: top.query, Shards: survivors, Replication: 2, Groups: shard.Groups(top.names, survivors, 2),
		})
		if resp.StatusCode != http.StatusOK || disp != dispHit {
			t.Fatalf("batched post-drain search on %s = %d/%s, want 200/hit", owner, resp.StatusCode, disp)
		}
	}

	// Both directions of the handoff are accounted, with nothing refused.
	snap0 := top.srv[0].Stats()
	if snap0.Shard == nil || snap0.Shard.Status != shard.StatusDraining {
		t.Fatalf("drained shard stats: %+v", snap0.Shard)
	}
	if snap0.Shard.Handoff.Pushed+snap0.Shard.Handoff.Replayed == 0 || snap0.Shard.Handoff.PushErrors != 0 {
		t.Fatalf("drained shard handoff counters: %+v", snap0.Shard.Handoff)
	}
	var received int64
	for _, si := range []int{1, 2} {
		h := top.srv[si].Stats().Shard.Handoff
		if h.RefusedStale != 0 {
			t.Fatalf("survivor %d refused entries: %+v", si, h)
		}
		received += h.Accepted + h.Recomputed
	}
	if received == 0 {
		t.Fatal("no survivor recorded a received handoff entry")
	}

	// Idempotent: a repeat drain reports without re-pushing.
	pushedBefore := snap0.Shard.Handoff.Pushed
	resp, body = postJSON(t, top.servers[0].URL+shard.DrainPath, fleetBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat drain = %d: %s", resp.StatusCode, body)
	}
	if got := top.srv[0].Stats().Shard.Handoff.Pushed; got != pushedBefore {
		t.Fatalf("repeat drain re-pushed: %d -> %d", pushedBefore, got)
	}
	select {
	case id := <-top.drained:
		t.Fatalf("repeat drain re-fired OnDrained (%q)", id)
	default:
	}
}

// TestShardHandoffGenerationGuard pins the staleness rules: a push whose
// generation does not fingerprint its own shard list is rejected outright,
// and a well-formed push for a topology the receiver is not at is refused
// entirely as stale.
func TestShardHandoffGenerationGuard(t *testing.T) {
	top := newDrainTopology(t, 3, 2)

	push := func(req shard.HandoffRequest) (*http.Response, shard.HandoffResponse) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(req); err != nil {
			t.Fatal(err)
		}
		hreq, err := http.NewRequest(http.MethodPost, top.servers[1].URL+shard.HandoffPath, &buf)
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("X-Fleet-Token", drainToken)
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hr shard.HandoffResponse
		if resp.StatusCode == http.StatusOK {
			if err := gob.NewDecoder(resp.Body).Decode(&hr); err != nil {
				t.Fatal(err)
			}
		}
		return resp, hr
	}

	entry := shard.HandoffEntry{Kind: shard.CapabilitySearch, Query: top.query, Owners: []string{"shard-1", "shard-2"}}
	target := []string{"shard-1", "shard-2"}

	// Self-inconsistent push: generation does not fingerprint its list.
	resp, _ := push(shard.HandoffRequest{
		From: "shard-0", Shards: target, Replication: 2,
		Generation: 12345, Entries: []shard.HandoffEntry{entry},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("inconsistent generation = %d, want 422", resp.StatusCode)
	}

	// Consistent push for a topology the receiver (still at boot view,
	// three shards) is not serving: every entry refused as stale.
	resp, hr := push(shard.HandoffRequest{
		From: "shard-0", Shards: target, Replication: 2,
		Generation: shard.Generation(target), Entries: []shard.HandoffEntry{entry},
	})
	if resp.StatusCode != http.StatusOK || hr.RefusedStale != 1 || hr.Accepted+hr.Recomputed != 0 {
		t.Fatalf("stale push = %d, %+v", resp.StatusCode, hr)
	}

	// No token, no handoff.
	var buf bytes.Buffer
	_ = gob.NewEncoder(&buf).Encode(shard.HandoffRequest{})
	plain, err := http.Post(top.servers[1].URL+shard.HandoffPath, shard.ContentType, &buf)
	if err != nil {
		t.Fatal(err)
	}
	plain.Body.Close()
	if plain.StatusCode != http.StatusForbidden {
		t.Fatalf("tokenless handoff = %d, want 403", plain.StatusCode)
	}
}

// TestShardFleetReloadGrowsHoldings pins the membership-reload side: a
// shard told the fleet shrank re-derives its owned slice, loads the
// datasets it lacked through ShardLoader, and serves them — while a
// repeated identical POST is a no-op.
func TestShardFleetReloadGrowsHoldings(t *testing.T) {
	top := newDrainTopology(t, 3, 1) // R=1: slices are disjoint, reload must load
	s1 := top.srv[1]
	heldBefore := len(s1.shardState().indexes)
	if heldBefore == len(top.dss) {
		t.Fatal("fixture gives shard-1 the whole catalog; nothing to prove")
	}

	body := `{"shards":["shard-1"],"replication":1}`
	resp, raw := postJSON(t, top.servers[1].URL+shard.ShardFleetPath, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload = %d: %s", resp.StatusCode, raw)
	}
	var st shardFleetState
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Held != len(top.dss) || st.Loaded != len(top.dss)-heldBefore {
		t.Fatalf("sole-survivor reload: held %d loaded %d, want %d/%d (%s)",
			st.Held, st.Loaded, len(top.dss), len(top.dss)-heldBefore, raw)
	}

	// The engine behind the state actually serves the grown slice.
	resp2, _ := shardSearch(t, top.servers[1].URL, shard.SearchRequest{Query: top.query})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-reload search = %d", resp2.StatusCode)
	}

	// Identical list: no generation bump, no load, no reload count.
	resp, raw = postJSON(t, top.servers[1].URL+shard.ShardFleetPath, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat reload = %d: %s", resp.StatusCode, raw)
	}
	var again shardFleetState
	if err := json.Unmarshal(raw, &again); err != nil {
		t.Fatal(err)
	}
	if again.Loaded != 0 || again.Generation != st.Generation {
		t.Fatalf("repeat reload not a no-op: %s", raw)
	}
}

// TestHandoffAcceptedPartialAdoptsEngineGenes: a pushed search partial that
// the receiver accepts is cached decoded, and — its ID column listing the
// receiver's genes in the receiver's order — made to share the engine's gene
// columns, so it is charged (and pins) what a locally computed partial
// would, not its frame's ID and name blobs on top. A body of the wrong
// accumulator kind, or for another query, is recomputed instead.
func TestHandoffAcceptedPartialAdoptsEngineGenes(t *testing.T) {
	top := newDrainTopology(t, 3, 2)
	// A group both shard-1 and shard-2 own — each holds all of it — and a
	// query coherent in it, so the partial lists genes.
	var owners, ids []string
	u := synth.NewUniverse(200, 8, 71) // newDrainTopology's
	st := top.srv[1].shardState()
	v := top.srv[1].groupView(st, top.shards, 2)
	for gi, g := range v.table.Tuples {
		if !((g[0] == "shard-1" && g[1] == "shard-2") || (g[0] == "shard-2" && g[1] == "shard-1")) {
			continue
		}
		for m := 0; m < 8 && owners == nil; m++ {
			q := spell.CanonicalQuery(u.ModuleGeneIDs(m)[:4])
			p, err := st.engine.PartialSearchSubsetCtx(context.Background(), q, v.held[gi], spell.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(p.IDs) == st.engine.NumGenes() {
				owners, ids = g, q
			}
		}
	}
	if owners == nil {
		t.Fatal("fixture: no module is coherent in a group shard-1 and shard-2 share")
	}
	sender, receiver := top.srv[2], top.srv[1]
	body := func(query []string, uniform bool) []byte {
		a, _, err := sender.partialSearch(context.Background(), query, &shard.SearchRequest{
			Query: query, Shards: top.shards, Replication: 2, Groups: [][]string{owners}, Uniform: uniform,
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := encodePartial(a.Parts[0].Partial)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	push := func(query []string, b []byte) shard.HandoffResponse {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(shard.HandoffRequest{
			From: "shard-2", Shards: top.shards, Replication: 2, Generation: shard.Generation(top.shards),
			Entries: []shard.HandoffEntry{{Kind: shard.CapabilitySearch, Query: query, Owners: owners, Body: b}},
		}); err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, shard.HandoffPath, &buf)
		req.Header.Set("X-Fleet-Token", drainToken)
		rec := httptest.NewRecorder()
		receiver.ServeHTTP(rec, req)
		var hr shard.HandoffResponse
		if err := gob.NewDecoder(rec.Body).Decode(&hr); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("handoff = %d, %v", rec.Code, err)
		}
		return hr
	}

	if hr := push(ids, body(ids, false)); hr.Accepted != 1 {
		t.Fatalf("a partial over exactly the receiver's datasets: %+v, want accepted", hr)
	}
	cached, ok := receiver.cache.Get(searchPartialKey(v, owners, false, ids))
	if !ok {
		t.Fatal("accepted partial not cached under the key requests are served from")
	}
	accepted := cached.(*spell.Partial)
	gi, _ := v.table.Lookup(owners)
	local, err := st.engine.PartialSearchSubsetCtx(context.Background(), ids, v.held[gi], spell.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cost := st.partialCost
	if len(accepted.IDs) != st.engine.NumGenes() || cost(accepted) != cost(local) {
		t.Fatalf("accepted partial of %d genes is charged %d, a local one %d: it does not share the engine's gene columns",
			len(accepted.IDs), cost(accepted), cost(local))
	}
	if resp, disp := shardSearch(t, top.servers[1].URL, shard.SearchRequest{
		Query: ids, Shards: top.shards, Replication: 2, Groups: [][]string{owners},
	}); resp.StatusCode != http.StatusOK || disp != dispHit {
		t.Fatalf("request after the handoff = %d/%s, want a hit", resp.StatusCode, disp)
	}

	other := ids[:3]
	if hr := push(other, body(other, true)); hr.Recomputed != 1 {
		t.Fatalf("a uniform-pair body: %+v, want recomputed", hr)
	}
	third := ids[1:]
	if hr := push(third, body(ids, false)); hr.Recomputed != 1 {
		t.Fatalf("a body for another query: %+v, want recomputed", hr)
	}
}
