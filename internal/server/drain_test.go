package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"forestview/internal/shard"
	"forestview/internal/spell"
	"forestview/internal/synth"
)

const drainToken = "sesame"

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

// TestShardDrain pins what a drain is: a token-gated, one-way flip that the
// shard advertises, that fires OnDrained once, and after which the shard
// keeps serving — and nothing else. There is no shard-to-shard endpoint.
func TestShardDrain(t *testing.T) {
	top := newShardTopology(t, 3, shard.Config{Replication: 2})
	drainURL := top.fleet.URL(0) + shard.DrainPath

	plain, err := http.Post(drainURL, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	plain.Body.Close()
	if plain.StatusCode != http.StatusForbidden {
		t.Fatalf("tokenless drain = %d, want 403", plain.StatusCode)
	}
	if top.srv[0].draining.Load() {
		t.Fatal("a refused drain flipped the shard")
	}

	// With a body (any body: it is ignored) and, the second time, without.
	for i, body := range []string{`{"shards":["shard-1","shard-2"],"replication":2}`, ""} {
		resp, raw := postJSON(t, drainURL, body)
		if got := strings.TrimSpace(string(raw)); resp.StatusCode != http.StatusOK || got != `{"status":"draining"}` {
			t.Fatalf("drain %d = %d: %s", i, resp.StatusCode, raw)
		}
	}
	select {
	case id := <-top.drained:
		if id != "shard-0" {
			t.Fatalf("OnDrained for %q", id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnDrained never fired")
	}
	select {
	case id := <-top.drained:
		t.Fatalf("OnDrained fired twice (%q)", id)
	case <-time.After(50 * time.Millisecond):
	}

	// The drained shard advertises its state; its neighbours do not.
	if info := shardInfoOf(t, top.fleet.URL(0)); info.Status != shard.StatusDraining {
		t.Fatalf("drained shard status = %q", info.Status)
	}
	if snap := top.srv[0].Stats(); snap.Shard == nil || snap.Shard.Status != shard.StatusDraining {
		t.Fatalf("drained shard stats: %+v", snap.Shard)
	}
	for _, si := range []int{1, 2} {
		if info := shardInfoOf(t, top.fleet.URL(si)); info.Status != shard.StatusActive {
			t.Fatalf("shard-%d status = %q", si, info.Status)
		}
	}

	// It serves until its process exits: a group it owns, asked for after
	// the drain, is a 200.
	for _, owners := range shard.Groups(top.fleet.Members()[0].Catalog, top.fleet.Members()[0].Shards, 2) {
		if !slices.Contains(owners, "shard-0") {
			continue
		}
		rec, _ := postShard[shard.SearchAnswer](t, top.srv[0], shard.SearchPath, shard.SearchRequest{
			Query: top.query, Shards: top.fleet.Members()[0].Shards, Replication: 2, Groups: [][]string{owners},
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("drained shard answered group %v with %d", owners, rec.Code)
		}
	}

	if resp, raw := postJSON(t, top.fleet.URL(1)+"/api/shard/v1/handoff", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /api/shard/v1/handoff = %d, want 404: %s", resp.StatusCode, raw)
	}
}

// TestShardFleetReloadGrowsHoldings pins the membership-reload side: a
// shard told the fleet shrank re-derives its owned slice, loads the
// datasets it lacked through ShardLoader, and serves them — the whole-slice
// probe too, whose pre-reload partial is cached — while a reload whose
// loader fails, and a repeated identical POST, leave the state as it is.
func TestShardFleetReloadGrowsHoldings(t *testing.T) {
	top := newShardTopology(t, 3, shard.Config{}) // R=1: slices are disjoint, reload must load
	s1 := top.srv[1]
	boot := s1.shardState()
	if len(boot.indexes) == len(top.dss) {
		t.Fatal("fixture gives shard-1 the whole catalog; nothing to prove")
	}
	probe := func() int {
		t.Helper()
		rec, a := postShard[shard.SearchAnswer](t, s1, shard.SearchPath, shard.SearchRequest{Query: top.query})
		if a == nil || len(a.Parts) != 1 {
			t.Fatalf("probe = %d: %s", rec.Code, rec.Body)
		}
		return len(a.Parts[0].Partial.Datasets)
	}
	if got := probe(); got != len(boot.indexes) {
		t.Fatalf("boot probe lists %d datasets, shard-1 holds %d", got, len(boot.indexes))
	}

	body := `{"shards":["shard-1"],"replication":1}`
	for gi := range top.dss {
		if _, held := boot.local[gi]; !held {
			top.failLoad.Store(int64(gi)) // a dataset the reload has to load
			break
		}
	}
	if resp, raw := postJSON(t, top.fleet.URL(1)+shard.ShardFleetPath, body); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("reload with an unreadable dataset = %d, want 422: %s", resp.StatusCode, raw)
	}
	if s1.shardState() != boot || s1.shardReloads.Load() != 0 {
		t.Fatalf("a failed reload changed the shard: state swapped %t, reloads %d", s1.shardState() != boot, s1.shardReloads.Load())
	}
	top.failLoad.Store(-1)

	resp, raw := postJSON(t, top.fleet.URL(1)+shard.ShardFleetPath, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload = %d: %s", resp.StatusCode, raw)
	}
	var st shardFleetState
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Held != len(top.dss) || st.Loaded != len(top.dss)-len(boot.indexes) || st.Reloads != 1 {
		t.Fatalf("sole-survivor reload: held %d loaded %d reloads %d, want %d/%d/1 (%s)",
			st.Held, st.Loaded, st.Reloads, len(top.dss), len(top.dss)-len(boot.indexes), raw)
	}

	// The engine behind the state serves the grown slice, not the partial
	// the first probe left in the cache.
	if got := probe(); got != len(top.dss) {
		t.Fatalf("post-reload probe lists %d datasets, want all %d", got, len(top.dss))
	}

	// Identical list: the state, the ownership-group view cached against
	// it, the generation and the reload count all stay.
	grown := s1.shardState()
	resp, raw = postJSON(t, top.fleet.URL(1)+shard.ShardFleetPath, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat reload = %d: %s", resp.StatusCode, raw)
	}
	var again shardFleetState
	if err := json.Unmarshal(raw, &again); err != nil {
		t.Fatal(err)
	}
	if again.Loaded != 0 || again.Generation != st.Generation || again.Reloads != 1 || s1.shardState() != grown {
		t.Fatalf("repeat reload not a no-op (state swapped: %t): %s", s1.shardState() != grown, raw)
	}
}

// TestShardSearchFollowsReload: a shard's own /api/search is a coordinator
// over its one local member, whose one group is the whole global catalog, so
// it searches what the shard holds now. Before a reload that is a slice of
// the catalog, not the compendium: the answer ranks the slice and says it
// is degraded. The reload that makes the shard the sole survivor gives it
// everything, and the answer ranks the whole catalog, undegraded, as
// /api/stats counts it.
func TestShardSearchFollowsReload(t *testing.T) {
	top := newShardTopology(t, 3, shard.Config{})
	s1 := top.srv[1]
	held := len(s1.shardState().indexes)
	if held == len(top.dss) {
		t.Fatal("fixture gives shard-1 the whole catalog; nothing to prove")
	}
	search := func() (ranked int, degraded string) {
		t.Helper()
		rec := get(t, s1, searchURL(top.query))
		if rec.Code != http.StatusOK {
			t.Fatalf("shard search = %d: %s", rec.Code, rec.Body.String())
		}
		var body scatterBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		return len(body.Datasets), rec.Header().Get("X-Forestview-Degraded")
	}
	if n, degraded := search(); n != held || degraded != "true" {
		t.Fatalf("before the reload: %d datasets ranked (degraded %q), want the %d held (degraded true)", n, degraded, held)
	}
	if resp, raw := postJSON(t, top.fleet.URL(1)+shard.ShardFleetPath, `{"shards":["shard-1"],"replication":1}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload = %d: %s", resp.StatusCode, raw)
	}
	if n, degraded := search(); n != len(top.dss) || degraded != "false" {
		t.Fatalf("after the reload: %d datasets ranked (degraded %q), want all %d (degraded false)", n, degraded, len(top.dss))
	}
	if n := s1.Stats().Compendium.Datasets; n != len(top.dss) {
		t.Fatalf("/api/stats counts %d datasets after the reload, want %d", n, len(top.dss))
	}
}

// TestShardFleetReloadRefusesCollapsedPlacement: a catalog whose names differ
// only in their last byte is one ownership group under any fleet of two or
// more; a one-shard fleet boots on it, and the reload that would grow the
// fleet is refused with the state untouched.
func TestShardFleetReloadRefusesCollapsedPlacement(t *testing.T) {
	u := synth.NewUniverse(80, 4, 91)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 4, MinExperiments: 6, MaxExperiments: 8, ActiveFraction: 0.5, Noise: 0.3, Seed: 92,
	})
	engine, err := spell.NewEngine(dss)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Engine: engine, ShardIndexes: []int{0, 1, 2, 3},
		ShardDatasetIDs: []string{"expr-a", "expr-b", "expr-c", "expr-d"},
		ShardSelf:       "shard-0", ShardFleet: []string{"shard-0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	boot := s.shardState()
	_, _, err = s.reloadShard(context.Background(), []string{"shard-0", "shard-1"}, 1)
	if err == nil || !strings.Contains(err.Error(), "one ownership group") {
		t.Fatalf("reload onto a collapsed placement: err = %v, want the refusal", err)
	}
	if s.shardState() != boot || s.shardReloads.Load() != 0 {
		t.Fatal("a refused reload changed the shard")
	}
}
