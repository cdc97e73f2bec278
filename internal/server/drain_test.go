package server

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
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
	repl    int
	servers []*httptest.Server
	srv     []*Server
	query   []string
	drained chan string // OnDrained pings, by shard identity
	// failLoad is the global index of a dataset the loader refuses to load
	// (-1, the default: none).
	failLoad atomic.Int64
}

const drainToken = "sesame"

func newDrainTopology(t testing.TB, nShards, repl int) *drainTopology {
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
		dss: dss, names: names, shards: shardNames, repl: repl,
		query:   u.ModuleGeneIDs(2)[:4],
		drained: make(chan string, nShards),
	}
	top.failLoad.Store(-1)
	for _, self := range shardNames {
		ss := top.newShard(t, self)
		hs := httptest.NewServer(ss)
		t.Cleanup(hs.Close)
		top.servers = append(top.servers, hs)
		top.srv = append(top.srv, ss)
	}
	return top
}

// newShard boots one member over its owned slice of the full-fleet view.
func (top *drainTopology) newShard(t testing.TB, self string) *Server {
	t.Helper()
	owned := shard.OwnedIndexesR(top.names, top.shards, self, top.repl)
	var slice []*microarray.Dataset
	for _, gi := range owned {
		slice = append(slice, top.dss[gi])
	}
	se, err := spell.NewEngine(slice)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := New(Config{
		Engine:           se,
		ShardIndexes:     owned,
		ShardDatasetIDs:  top.names,
		ShardSelf:        self,
		ShardFleet:       top.shards,
		ShardReplication: top.repl,
		ShardRawDatasets: slice,
		ShardLoader: func(_ context.Context, gi int) (*microarray.Dataset, error) {
			if int64(gi) == top.failLoad.Load() {
				return nil, fmt.Errorf("dataset %d is unreadable", gi)
			}
			return top.dss[gi], nil
		},
		OnDrained:  func() { top.drained <- self },
		FleetToken: drainToken,
		CacheBytes: 4 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ss.Close)
	return ss
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

// shardSearch posts one shard search request and returns the response and
// the decoded answer.
func shardSearch(t *testing.T, url string, req shard.SearchRequest) (*http.Response, shard.SearchAnswer) {
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
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.UnmarshalBinary(body); err != nil {
			t.Fatal(err)
		}
	}
	return resp, a
}

// TestShardDrain pins what a drain is: a token-gated, one-way flip that the
// shard advertises, that fires OnDrained once, and after which the shard
// keeps serving — and nothing else. There is no shard-to-shard endpoint.
func TestShardDrain(t *testing.T) {
	top := newDrainTopology(t, 3, 2)
	drainURL := top.servers[0].URL + shard.DrainPath

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
	if info := shardInfoOf(t, top.servers[0]); info.Status != shard.StatusDraining {
		t.Fatalf("drained shard status = %q", info.Status)
	}
	if snap := top.srv[0].Stats(); snap.Shard == nil || snap.Shard.Status != shard.StatusDraining {
		t.Fatalf("drained shard stats: %+v", snap.Shard)
	}
	for _, si := range []int{1, 2} {
		if info := shardInfoOf(t, top.servers[si]); info.Status != shard.StatusActive {
			t.Fatalf("shard-%d status = %q", si, info.Status)
		}
	}

	// It serves until its process exits: a group it owns, asked for after
	// the drain, is a 200.
	for _, owners := range shard.Groups(top.names, top.shards, 2) {
		if !slices.Contains(owners, "shard-0") {
			continue
		}
		resp, _ := shardSearch(t, top.servers[0].URL, shard.SearchRequest{
			Query: top.query, Shards: top.shards, Replication: 2, Groups: [][]string{owners},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("drained shard answered group %v with %d", owners, resp.StatusCode)
		}
	}

	if resp, raw := postJSON(t, top.servers[1].URL+"/api/shard/v1/handoff", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /api/shard/v1/handoff = %d, want 404: %s", resp.StatusCode, raw)
	}
}

// TestShardFleetReloadGrowsHoldings pins the membership-reload side: a
// shard told the fleet shrank re-derives its owned slice, loads the
// datasets it lacked through ShardLoader, and serves them — the whole-slice
// probe too, whose pre-reload partial is cached — while a reload whose
// loader fails, and a repeated identical POST, leave the state as it is.
func TestShardFleetReloadGrowsHoldings(t *testing.T) {
	top := newDrainTopology(t, 3, 1) // R=1: slices are disjoint, reload must load
	s1 := top.srv[1]
	boot := s1.shardState()
	if len(boot.indexes) == len(top.dss) {
		t.Fatal("fixture gives shard-1 the whole catalog; nothing to prove")
	}
	probe := func() int {
		t.Helper()
		resp, a := shardSearch(t, top.servers[1].URL, shard.SearchRequest{Query: top.query})
		if resp.StatusCode != http.StatusOK || len(a.Parts) != 1 {
			t.Fatalf("probe = %d, %d parts", resp.StatusCode, len(a.Parts))
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
	if resp, raw := postJSON(t, top.servers[1].URL+shard.ShardFleetPath, body); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("reload with an unreadable dataset = %d, want 422: %s", resp.StatusCode, raw)
	}
	if s1.shardState() != boot || s1.shardReloads.Load() != 0 {
		t.Fatalf("a failed reload changed the shard: state swapped %t, reloads %d", s1.shardState() != boot, s1.shardReloads.Load())
	}
	top.failLoad.Store(-1)

	resp, raw := postJSON(t, top.servers[1].URL+shard.ShardFleetPath, body)
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
	resp, raw = postJSON(t, top.servers[1].URL+shard.ShardFleetPath, body)
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
	top := newDrainTopology(t, 3, 1)
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
	if resp, raw := postJSON(t, top.servers[1].URL+shard.ShardFleetPath, `{"shards":["shard-1"],"replication":1}`); resp.StatusCode != http.StatusOK {
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
		ShardSelf:       "shard-0", ShardFleet: []string{"shard-0"}, ShardRawDatasets: dss,
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
