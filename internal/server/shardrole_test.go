package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"forestview/internal/fleettest"
	"forestview/internal/golem"
	"forestview/internal/microarray"
	"forestview/internal/shard"
	"forestview/internal/spell"
	"forestview/internal/synth"
)

// shardTopology is a full two-tier deployment in-process: shard-role
// Servers placed and served by fleettest, each booted with its fleet
// identity, the full membership view, a loader over the shared compendium
// and the admin token — everything a drain or a rolling restart needs — and
// a coordinator-role Server over them.
type shardTopology struct {
	coord *Server
	fleet *fleettest.Fleet[*Server]
	srv   []*Server // the members' servers, by index
	dss   []*microarray.Dataset
	full  *spell.Engine
	query []string
	u     *synth.Universe
	enr   *golem.Enricher // full-universe enricher (nil unless enriched)
	// enrich(i) says whether member i carries enr (nil: none does).
	enrich  func(i int) bool
	drained chan string // OnDrained pings, by shard identity
	// failLoad is the global index of a dataset the loader refuses to load
	// (-1, the default: none).
	failLoad atomic.Int64
}

func newShardTopology(t testing.TB, nShards int, cfg shard.Config) *shardTopology {
	return newEnrichedTopology(t, nShards, 6, cfg, nil)
}

// topologyEnricher builds the shared test ontology/enricher over the
// topology universe. Every caller passes the same inputs, so every
// enricher built from one universe has the same kernel fingerprint — the
// property a real fleet gets from booting every shard off one OBO and one
// association file.
func topologyEnricher(t testing.TB, u *synth.Universe) *golem.Enricher {
	t.Helper()
	onto, ann, err := u.Ontology(73)
	if err != nil {
		t.Fatal(err)
	}
	enr, err := golem.NewEnricher(onto, ann, u.GeneIDs())
	if err != nil {
		t.Fatal(err)
	}
	return enr
}

// newEnrichedTopology is newShardTopology with the dataset count
// parameterized and an optional per-shard enrichment predicate: shards for
// which enrich(i) is true boot with an ontology (and the enrich
// capability), the rest serve search only.
func newEnrichedTopology(t testing.TB, nShards, nDatasets int, cfg shard.Config, enrich func(i int) bool) *shardTopology {
	t.Helper()
	u := synth.NewUniverse(200, 8, 71)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: nDatasets, MinExperiments: 8, MaxExperiments: 14,
		ActiveFraction: 0.5, Noise: 0.3, Seed: 72,
	})
	top := &shardTopology{query: u.ModuleGeneIDs(2)[:4], u: u}
	if enrich != nil {
		top.enr = topologyEnricher(t, u)
	}
	startFleet(t, top, dss, nShards, cfg, enrich)
	return top
}

// startFleet boots the two tiers of top over the compendium dss, at cfg's
// replication.
func startFleet(t testing.TB, top *shardTopology, dss []*microarray.Dataset, nShards int, cfg shard.Config, enrich func(i int) bool) {
	t.Helper()
	full, err := spell.NewEngine(dss)
	if err != nil {
		t.Fatal(err)
	}
	top.dss, top.full, top.enrich = dss, full, enrich
	top.srv, top.drained = make([]*Server, nShards), make(chan string, nShards)
	top.failLoad.Store(-1)
	top.fleet, err = fleettest.New(fleettest.Spec[*Server]{
		Datasets: dss, Shards: nShards, Replication: cfg.Replication, Coordinator: cfg,
		Boot: func(m fleettest.Member) (*Server, error) {
			s, err := top.boot(m)
			top.srv[m.Index] = s
			return s, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(top.fleet.Close)
	top.coord, err = New(Config{Scatter: top.fleet.Coordinator(), CacheBytes: 4 << 20, FleetToken: drainToken})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(top.coord.Close)
}

// boot serves one member over its owned slice of the full-fleet view.
func (top *shardTopology) boot(m fleettest.Member) (*Server, error) {
	cfg := Config{
		Engine:           m.Engine,
		ShardIndexes:     m.Owned,
		ShardDatasetIDs:  m.Catalog,
		ShardSelf:        m.ID,
		ShardFleet:       m.Shards,
		ShardReplication: m.Replication,
		ShardLoader: func(_ context.Context, gi int) (*microarray.Dataset, error) {
			if int64(gi) == top.failLoad.Load() {
				return nil, fmt.Errorf("dataset %d is unreadable", gi)
			}
			return top.dss[gi], nil
		},
		OnDrained:  func() { top.drained <- m.ID },
		FleetToken: drainToken,
		CacheBytes: 4 << 20,
	}
	if top.enrich != nil && top.enrich(m.Index) {
		cfg.Enricher = top.enr
	}
	return New(cfg)
}

func searchURL(query []string) string {
	return "/api/search?q=" + strings.Join(query, ",") + "&top=40"
}

// searchBody is s's 200 answer to url with shard.Meta's fields removed: what
// a single daemon and every fleet over one compendium answer byte for byte.
func searchBody(t *testing.T, s *Server, url string) []byte {
	t.Helper()
	rec := get(t, s, url)
	var body, meta map[string]json.RawMessage
	b, _ := json.Marshal(shard.Meta{Replication: 1, GroupsOK: 1, GroupsTotal: 1})
	if err := errors.Join(json.Unmarshal(rec.Body.Bytes(), &body), json.Unmarshal(b, &meta)); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("%s = %d (%v): %s", url, rec.Code, err, rec.Body)
	}
	for k := range meta {
		delete(body, k)
	}
	b, _ = json.Marshal(body)
	return b
}

// singleDaemon serves e as a single daemon.
func singleDaemon(t *testing.T, e *spell.Engine) *Server {
	t.Helper()
	s, err := New(Config{Engine: e})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

type scatterBody struct {
	Query    []string
	Datasets []json.RawMessage
	Genes    []struct {
		ID    string
		Score float64
	}
	Degraded    bool `json:"degraded"`
	ShardsOK    int  `json:"shards_ok"`
	ShardsTotal int  `json:"shards_total"`
}

// TestCoordinatorSearchMatchesSingleProcess: a 2-shard topology answers
// /api/search with the single-process daemon's body, byte for byte but for
// shard.Meta's fields, carries the shard tally headers, and caches the
// merged result. So does every fleet shape, weighted and — for a query
// incoherent everywhere — uniform.
func TestCoordinatorSearchMatchesSingleProcess(t *testing.T) {
	top := newShardTopology(t, 2, shard.Config{Deadline: 5 * time.Second})
	rec := get(t, top.coord, searchURL(top.query))
	if rec.Code != http.StatusOK {
		t.Fatalf("search = %d: %s", rec.Code, rec.Body.String())
	}
	if h := rec.Header().Get("X-Forestview-Degraded"); h != "false" {
		t.Fatalf("degraded header = %q", h)
	}
	if ok, tot := rec.Header().Get("X-Forestview-Shards-Ok"), rec.Header().Get("X-Forestview-Shards-Total"); ok != "2" || tot != "2" {
		t.Fatalf("shard tally headers = %s/%s", ok, tot)
	}
	var body scatterBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Degraded || body.ShardsOK != 2 || body.ShardsTotal != 2 {
		t.Fatalf("body meta: degraded=%v %d/%d", body.Degraded, body.ShardsOK, body.ShardsTotal)
	}
	single := singleDaemon(t, top.full)
	urls := []string{searchURL(top.query), "/api/search?q=" + top.query[0] + ",NOT-A-REAL-GENE"} // the second: every coherence NaN
	for _, shape := range []struct{ shards, repl int }{{2, 1}, {1, 1}, {3, 1}, {3, 2}, {4, 2}, {5, 3}} {
		fleet := top
		if shape.shards != 2 {
			fleet = newShardTopology(t, shape.shards, shard.Config{Deadline: 5 * time.Second, Replication: shape.repl})
		}
		for _, url := range urls {
			if got, want := searchBody(t, fleet.coord, url), searchBody(t, single, url); !bytes.Equal(got, want) {
				t.Fatalf("%d shards R=%d, %s: bodies differ:\nfleet  %s\nsingle %s", shape.shards, shape.repl, url, got, want)
			}
		}
	}

	// Second identical query: merged-result cache hit, no new scatter.
	before := statsOf(t, top.coord, "search")
	rec = get(t, top.coord, searchURL(top.query))
	if rec.Code != http.StatusOK {
		t.Fatalf("repeat = %d", rec.Code)
	}
	after := statsOf(t, top.coord, "search")
	if after.CacheHits != before.CacheHits+1 || after.Computed != before.Computed {
		t.Fatalf("repeat not served from cache: before %+v after %+v", before, after)
	}

	// The scatter section reports the topology and per-shard traffic.
	var snap StatsSnapshot
	if err := json.Unmarshal(get(t, top.coord, "/api/stats").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Scatter == nil || snap.Scatter.ShardsTotal != 2 || len(snap.Scatter.Shards) != 2 {
		t.Fatalf("scatter stats: %+v", snap.Scatter)
	}
	for _, sh := range snap.Scatter.Shards {
		if sh.Requests == 0 {
			t.Fatalf("shard %s saw no requests", sh.Addr)
		}
	}
	// Compendium totals come from the shard info union.
	if snap.Compendium.Datasets != len(top.dss) || snap.Compendium.Genes != top.full.NumGenes() {
		t.Fatalf("coordinator compendium: %+v", snap.Compendium)
	}
	// Merged results live under the scatter prefix of the shared LRU.
	if p := snap.Cache.Prefixes["scatter"]; p.Entries == 0 || p.Bytes == 0 {
		t.Fatalf("scatter prefix occupancy: %+v", snap.Cache.Prefixes)
	}
}

// TestCoordinatorDegradedMode is the acceptance criterion: with one shard
// killed, /api/search still answers 200, flags degraded=true, and the
// weights renormalize (sum to 1) over the surviving shards' datasets.
// Degraded merges must not enter the cache.
func TestCoordinatorDegradedMode(t *testing.T) {
	top := newShardTopology(t, 2, shard.Config{Deadline: 500 * time.Millisecond})
	top.fleet.Kill(1)

	rec := get(t, top.coord, searchURL(top.query))
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded search = %d: %s", rec.Code, rec.Body.String())
	}
	if h := rec.Header().Get("X-Forestview-Degraded"); h != "true" {
		t.Fatalf("degraded header = %q", h)
	}
	var body scatterBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if !body.Degraded || body.ShardsOK != 1 || body.ShardsTotal != 2 {
		t.Fatalf("body meta: degraded=%v %d/%d", body.Degraded, body.ShardsOK, body.ShardsTotal)
	}
	// Renormalization: the surviving shard's dataset weights sum to 1.
	var ranks []spell.DatasetRank
	raw := struct {
		Datasets *[]spell.DatasetRank
	}{&ranks}
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if len(ranks) >= len(top.dss) {
		t.Fatalf("degraded result covers %d datasets of %d — dead shard's slice leaked in", len(ranks), len(top.dss))
	}
	sum := 0.0
	for _, d := range ranks {
		sum += d.Weight
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("degraded weights sum to %v", sum)
	}

	// Not cached: the next identical query scatters again.
	before := statsOf(t, top.coord, "search")
	if rec := get(t, top.coord, searchURL(top.query)); rec.Code != http.StatusOK {
		t.Fatalf("second degraded search = %d", rec.Code)
	}
	after := statsOf(t, top.coord, "search")
	if after.Computed != before.Computed+1 {
		t.Fatalf("degraded result was served from cache: before %+v after %+v", before, after)
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(get(t, top.coord, "/api/stats").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Scatter.Degraded < 2 {
		t.Fatalf("degraded counter = %d", snap.Scatter.Degraded)
	}
}

// TestCoordinatorFullOutage: with every shard dead the coordinator sheds
// with 503 — retryable, not a query error.
func TestCoordinatorFullOutage(t *testing.T) {
	top := newShardTopology(t, 2, shard.Config{Deadline: 300 * time.Millisecond})
	top.fleet.Close()
	rec := get(t, top.coord, searchURL(top.query))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("full outage = %d: %s", rec.Code, rec.Body.String())
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(get(t, top.coord, "/api/stats").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Scatter.FullOutages != 1 {
		t.Fatalf("outage counter = %d", snap.Scatter.FullOutages)
	}
}

// TestCoordinatorRejectsSingleGene: query validation runs before any
// scatter — same 422 contract as the single-process daemon.
func TestCoordinatorRejectsSingleGene(t *testing.T) {
	top := newShardTopology(t, 2, shard.Config{Deadline: time.Second})
	rec := get(t, top.coord, "/api/search?q=ONLYONE")
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("single gene = %d", rec.Code)
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(get(t, top.coord, "/api/stats").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	for _, sh := range snap.Scatter.Shards {
		if sh.Requests != 0 {
			t.Fatalf("invalid query reached shard %s", sh.Addr)
		}
	}
}

// TestShardRoleKeepsNothing: the shard role is a pure function of the request
// and the shard's holdings. Every kind of request it serves — the whole-slice
// probe, a batch of completely held groups, its uniform twin, a batch with a
// partly held group, a batched enrichment — answers the same bytes the second
// time as the first, costs the same scans both times (one for everything held
// completely, one per partly held group, one tally per slice), says nothing
// about a cache and leaves none behind.
func TestShardRoleKeepsNothing(t *testing.T) {
	fixture(t) // builds fixEnricher
	u := synth.NewUniverse(150, 6, 71)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 9, MinExperiments: 8, MaxExperiments: 12,
		ActiveFraction: 0.5, Noise: 0.3, MissingRate: 0.02, Seed: 72,
	})
	names := make([]string, len(dss))
	for i, ds := range dss {
		names[i] = ds.Name
	}
	fleet := []string{"shard-0", "shard-1", "shard-2"}
	table := shard.NewGroupTable(names, fleet, 1)
	// The shard holds the catalog but for one dataset of a group of several.
	part, dropped := -1, -1
	for gi, members := range table.Members {
		if len(members) >= 2 {
			part, dropped = gi, members[len(members)-1]
			break
		}
	}
	if part < 0 || len(table.Tuples) != 3 {
		t.Fatalf("fixture: %d ownership groups with members %v", len(table.Tuples), table.Members)
	}
	var held []int
	var slice []*microarray.Dataset
	for gi, ds := range dss {
		if gi != dropped {
			held, slice = append(held, gi), append(slice, ds)
		}
	}
	engine, err := spell.NewEngine(slice)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Engine: engine, Enricher: fixEnricher, ShardIndexes: held, ShardDatasetIDs: names})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	var whole [][]string
	for gi, owners := range table.Tuples {
		if gi != part {
			whole = append(whole, owners)
		}
	}
	genes := u.ModuleGeneIDs(2)[:4]
	search := func(groups [][]string, uniform bool) any {
		return shard.SearchRequest{Query: genes, Shards: fleet, Replication: 1, Groups: groups, Uniform: uniform}
	}
	for _, tc := range []struct {
		name  string
		path  string
		req   any
		scans int64
	}{
		{"whole-slice probe", shard.SearchPath, search(nil, false), 1},
		{"batch", shard.SearchPath, search(whole, false), 1},
		{"uniform batch", shard.SearchPath, search(whole, true), 1},
		{"batch with a partly held group", shard.SearchPath, search(table.Tuples, false), 2},
		{"batched enrichment", shard.EnrichPath,
			shard.EnrichRequest{Selection: fixUniverse.ModuleGeneIDs(2)[:4], Shards: fleet, Replication: 1, Groups: table.Tuples}, 3},
	} {
		var first []byte
		for i := 0; i < 2; i++ {
			before := s.Stats().Endpoints["shard"].Computed
			var rec *httptest.ResponseRecorder
			if tc.path == shard.SearchPath {
				var a *shard.SearchAnswer
				if rec, a = postShard[shard.SearchAnswer](t, s, tc.path, tc.req); a != nil {
					for _, sp := range a.Parts {
						for _, d := range sp.Partial.Datasets {
							if d.Index == dropped || names[d.Index] != d.Name {
								t.Fatalf("%s: dataset %q at global index %d (dropped: %d)", tc.name, d.Name, d.Index, dropped)
							}
						}
					}
				}
			} else {
				rec, _ = postShard[shard.EnrichAnswer](t, s, tc.path, tc.req)
			}
			if rec.Code != http.StatusOK {
				t.Fatalf("%s = %d: %s", tc.name, rec.Code, rec.Body.String())
			}
			if disp, ok := rec.Header()[cacheHeader]; ok {
				t.Fatalf("%s: a shard answer carries %s: %q", tc.name, cacheHeader, disp)
			}
			if n := s.Stats().Endpoints["shard"].Computed - before; n != tc.scans {
				t.Fatalf("%s, request %d: computed moved by %d, want %d", tc.name, i+1, n, tc.scans)
			}
			if i == 0 {
				first = bytes.Clone(rec.Body.Bytes())
			} else if !bytes.Equal(first, rec.Body.Bytes()) {
				t.Fatalf("%s: the second answer differs from the first", tc.name)
			}
		}
	}
	snap := s.Stats()
	if ep := snap.Endpoints["shard"]; s.cache.Len() != 0 || len(snap.Cache.Prefixes) != 0 || ep.CacheHits+ep.CacheMisses+ep.Coalesced != 0 {
		t.Fatalf("the shard role kept %d entries (%v); lookups %+v", s.cache.Len(), snap.Cache.Prefixes, ep)
	}
}

// TestShardEndpointErrors pins the shard protocol's error contract.
func TestShardEndpointErrors(t *testing.T) {
	s, _ := fixtureShard(t)
	// GET is not part of the protocol.
	rec := get(t, s, shard.SearchPath)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET = %d", rec.Code)
	}
	// Garbage body.
	req := httptest.NewRequest(http.MethodPost, shard.SearchPath, strings.NewReader("not a request"))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage = %d", rec.Code)
	}
	// Empty query.
	req = httptest.NewRequest(http.MethodPost, shard.SearchPath, bytes.NewReader(shardBody(t, shard.SearchRequest{})))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("empty query = %d", rec.Code)
	}
}

// TestShardRefusesRequestBombs: a request body cannot make a shard allocate
// more than a small multiple of its length before refusing it. The gob body
// is the search request of the protocol before this one, its one tuple's
// count patched to claim 15.7M strings: in 161 bytes it made gob allocate
// 10 MiB. Its twin in the present layout claims 2^24.
func TestShardRefusesRequestBombs(t *testing.T) {
	s, _ := fixtureShard(t)
	const gobBomb = "Y\x7f\x03\x01\x01\rSearchRequest\x01\xff\x80\x00\x01\x05\x01\x05Query\x01\xff\x82\x00" +
		"\x01\x06Shards\x01\xff\x82\x00\x01\vReplication\x01\x04\x00\x01\x06Groups\x01\xff\x84\x00\x01\aUniform" +
		"\x01\x02\x00\x00\x00\x16\xff\x81\x02\x01\x01\b[]string\x01\xff\x82\x00\x01\f\x00\x00\x19\xff\x83\x02\x01" +
		"\x01\n[][]string\x01\xff\x84\x00\x01\xff\x82\x00\x00\x11\xff\x80\x01\x02\x01a\x01b\x03\x01\xfc\x00\xf0" +
		"\x00\x00\x04zzzz\x00"
	le := binary.LittleEndian
	twin := le.AppendUint32([]byte("FVSR\x01"), 2) // Query: a, b
	twin = append(le.AppendUint32(twin, 1), 'a')
	twin = append(le.AppendUint32(twin, 1), 'b')
	twin = le.AppendUint32(le.AppendUint32(twin, 0), 0)           // no Shards, replication 0
	twin = le.AppendUint32(le.AppendUint32(twin, 1), 1<<24)       // one tuple of 2^24 strings
	twin = append(append(le.AppendUint32(twin, 4), "zzzz"...), 0) // the first, and Uniform
	for name, body := range map[string][]byte{"gob": []byte(gobBomb), "twin": twin} {
		least := uint64(math.MaxUint64)
		for range 3 { // TotalAlloc is process-wide: the least of three is the request's
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, shard.SearchPath, bytes.NewReader(body)))
			runtime.ReadMemStats(&ms1)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s: %d-byte body = %d, want 400: %s", name, len(body), rec.Code, rec.Body.String())
			}
			least = min(least, ms1.TotalAlloc-ms0.TotalAlloc)
		}
		if least >= 64<<10 {
			t.Errorf("%s: refusing a %d-byte body allocated %d KiB", name, len(body), least>>10)
		}
	}
}

// fixtureShard is the shared fixture server re-wired as a shard backend.
func fixtureShard(t testing.TB) (*Server, *synth.Universe) {
	t.Helper()
	base, u := fixture(t)
	indexes := make([]int, base.shardState().engine.NumDatasets())
	for i := range indexes {
		indexes[i] = i
	}
	// Names that differ before their last byte: rendezvous scores of names
	// differing only there rank the shards alike, and the whole catalog
	// would be one ownership group under any fleet.
	catalog := make([]string, len(indexes))
	for i := range catalog {
		catalog[i] = fmt.Sprintf("dataset-%d-of-%d", i, len(catalog))
	}
	s, err := New(Config{Engine: base.shardState().engine, Enricher: fixEnricher, ShardIndexes: indexes, ShardDatasetIDs: catalog, CacheBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, u
}

// fleetOfOne is a coordinator over one HTTP shard holding the fixture's
// whole compendium, under its own dataset names, and its ontology: the
// topology a single daemon is, with the wire in the middle.
func fleetOfOne(t *testing.T) *Server {
	t.Helper()
	fixture(t)
	top := &shardTopology{enr: fixEnricher}
	startFleet(t, top, fixDatasets, 1, shard.Config{Deadline: 5 * time.Second}, func(int) bool { return true })
	return top.coord
}

// TestSingleIsAFleetOfOne: a single daemon is a coordinator over one local
// member, so it answers exactly as a coordinator over one HTTP shard holding
// the whole catalog — the same bytes on a miss and on a hit, the same
// coverage headers — for searches (the uniform second round included) and
// enrichments alike.
func TestSingleIsAFleetOfOne(t *testing.T) {
	single, u := fixture(t)
	fleet := fleetOfOne(t)
	q := strings.Join(u.ModuleGeneIDs(3)[:4], ",")
	for _, url := range []string{
		"/api/search?q=" + q,
		"/api/search?q=" + q + "&top=5",
		"/api/search?q=" + u.ModuleGeneIDs(2)[0] + ",NOT-A-REAL-GENE", // every coherence NaN: two rounds
		"/api/enrich?genes=" + q,
		"/api/enrich?genes=" + q + ",NOT-A-REAL-GENE&maxp=0.01&min=2",
	} {
		for _, disp := range []string{dispMiss, dispHit} {
			one, many := get(t, single, url), get(t, fleet, url)
			if one.Code != http.StatusOK || many.Code != http.StatusOK {
				t.Fatalf("%s: single %d, fleet of one %d: %s", url, one.Code, many.Code, many.Body)
			}
			if one.Header().Get(cacheHeader) != disp || many.Header().Get(cacheHeader) != disp {
				t.Fatalf("%s: dispositions %q and %q, want %q", url, one.Header().Get(cacheHeader), many.Header().Get(cacheHeader), disp)
			}
			if !bytes.Equal(one.Body.Bytes(), many.Body.Bytes()) {
				t.Fatalf("%s (%s): bodies differ:\nsingle       %s\nfleet of one %s", url, disp, one.Body, many.Body)
			}
			for _, h := range []string{"X-Forestview-Shards-Ok", "X-Forestview-Shards-Total", "X-Forestview-Degraded"} {
				if got, want := one.Header().Get(h), many.Header().Get(h); got != want || got == "" {
					t.Fatalf("%s: %s is %q on the single daemon, %q on the fleet of one", url, h, got, want)
				}
			}
		}
	}
}

func TestServerShardConfigValidation(t *testing.T) {
	s, _ := fixture(t)
	n := s.shardState().engine.NumDatasets()
	indexes := make([]int, n)
	catalog := make([]string, n)
	for i := range indexes {
		indexes[i] = i
		catalog[i] = fmt.Sprintf("ds-%d", i)
	}
	if _, err := New(Config{Engine: s.shardState().engine, ShardIndexes: []int{0}, ShardDatasetIDs: catalog}); err == nil {
		t.Fatal("mismatched shard index length accepted")
	}
	if _, err := New(Config{ShardIndexes: []int{0}, ShardDatasetIDs: catalog}); err == nil {
		t.Fatal("shard role without engine accepted")
	}
	if _, err := New(Config{Engine: s.shardState().engine, ShardIndexes: indexes}); err == nil {
		t.Fatal("shard role without the global catalog accepted")
	}
	bad := append([]int(nil), indexes...)
	bad[0] = n + 7
	if _, err := New(Config{Engine: s.shardState().engine, ShardIndexes: bad, ShardDatasetIDs: catalog}); err == nil {
		t.Fatal("shard index outside the catalog accepted")
	}
}

// TestCoordinatorReplicatedFailover: with replication 2 over three
// shards, killing one shard outright keeps /api/search serving 200,
// non-degraded, at golden parity with the single-process engine — the
// surviving replica of every ownership group answers.
func TestCoordinatorReplicatedFailover(t *testing.T) {
	top := newShardTopology(t, 3, shard.Config{Deadline: 2 * time.Second, Replication: 2})
	top.fleet.Kill(1)
	rec := get(t, top.coord, searchURL(top.query))
	if rec.Code != http.StatusOK {
		t.Fatalf("replicated search = %d: %s", rec.Code, rec.Body.String())
	}
	if h := rec.Header().Get("X-Forestview-Degraded"); h != "false" {
		t.Fatalf("degraded header = %q (replica failover should hide the dead shard)", h)
	}
	if got, want := searchBody(t, top.coord, searchURL(top.query)), searchBody(t, singleDaemon(t, top.full), searchURL(top.query)); !bytes.Equal(got, want) {
		t.Fatalf("bodies differ:\nfleet  %s\nsingle %s", got, want)
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(get(t, top.coord, "/api/stats").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Scatter.Replication != 2 || snap.Scatter.Degraded != 0 {
		t.Fatalf("scatter stats: %+v", snap.Scatter)
	}
}

// fleetDo drives /api/admin/fleet with an optional token and body.
func fleetDo(t *testing.T, s *Server, method, token, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, "/api/admin/fleet", rd)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestFleetAdminEndpoint pins the runtime-membership API: token-gated,
// GET reports the fleet, POST add/remove bumps the generation, domain
// errors surface as 422.
func TestFleetAdminEndpoint(t *testing.T) {
	top := newShardTopology(t, 2, shard.Config{Deadline: time.Second})

	if rec := fleetDo(t, top.coord, http.MethodGet, "", ""); rec.Code != http.StatusForbidden {
		t.Fatalf("no token = %d", rec.Code)
	}
	if rec := fleetDo(t, top.coord, http.MethodGet, "wrong", ""); rec.Code != http.StatusForbidden {
		t.Fatalf("wrong token = %d", rec.Code)
	}

	var state struct {
		Shards      []string `json:"shards"`
		Generation  string   `json:"generation"`
		Replication int      `json:"replication"`
		Bumps       int64    `json:"membership_bumps"`
	}
	rec := fleetDo(t, top.coord, http.MethodGet, "sesame", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET = %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &state); err != nil {
		t.Fatal(err)
	}
	if len(state.Shards) != 2 || state.Replication != 1 || state.Generation == "" || state.Bumps != 0 {
		t.Fatalf("fleet state: %+v", state)
	}
	gen0 := state.Generation

	if rec := fleetDo(t, top.coord, http.MethodPost, "sesame", `{"action":"explode","shard":"x"}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad action = %d", rec.Code)
	}
	if rec := fleetDo(t, top.coord, http.MethodPost, "sesame", `{"action":"remove","shard":"nope"}`); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("remove unknown = %d", rec.Code)
	}

	rec = fleetDo(t, top.coord, http.MethodPost, "sesame", `{"action":"remove","shard":"shard-1"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("remove = %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &state); err != nil {
		t.Fatal(err)
	}
	if len(state.Shards) != 1 || state.Bumps != 1 || state.Generation == gen0 {
		t.Fatalf("post-remove state: %+v", state)
	}
	// The last member is protected: an empty fleet serves nothing.
	if rec := fleetDo(t, top.coord, http.MethodPost, "sesame", `{"action":"remove","shard":"shard-0"}`); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("remove last = %d", rec.Code)
	}

	rec = fleetDo(t, top.coord, http.MethodPost, "sesame", `{"action":"add","shard":"shard-1"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("add = %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &state); err != nil {
		t.Fatal(err)
	}
	if len(state.Shards) != 2 || state.Bumps != 2 || state.Generation != gen0 {
		t.Fatalf("post-add state: %+v (generation must return with the same membership)", state)
	}

	// After the round trip the fleet serves full-coverage searches again.
	rec = get(t, top.coord, searchURL(top.query))
	if rec.Code != http.StatusOK || rec.Header().Get("X-Forestview-Degraded") != "true" && rec.Header().Get("X-Forestview-Degraded") != "false" {
		t.Fatalf("post-roundtrip search = %d", rec.Code)
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(get(t, top.coord, "/api/stats").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Scatter.MembershipBumps != 2 {
		t.Fatalf("membership bumps in stats = %d", snap.Scatter.MembershipBumps)
	}
	if _, ok := snap.Endpoints["fleet"]; !ok {
		t.Fatal("fleet endpoint missing from stats")
	}
}

// TestFleetAdminDisabled: without a configured token the endpoint refuses
// everything, and non-coordinators don't mount it at all.
func TestFleetAdminDisabled(t *testing.T) {
	top := newShardTopology(t, 2, shard.Config{Deadline: time.Second})
	bare, err := New(Config{Scatter: top.coord.cfg.Scatter, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bare.Close)
	if rec := fleetDo(t, bare, http.MethodPost, "sesame", `{"action":"remove","shard":"shard-1"}`); rec.Code != http.StatusForbidden {
		t.Fatalf("tokenless coordinator = %d, want 403 always", rec.Code)
	}
	single, _ := fixture(t)
	if rec := fleetDo(t, single, http.MethodGet, "sesame", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("single role fleet endpoint = %d, want 404", rec.Code)
	}
}

// TestCoordinatorHTMLDisclosesDegraded: the HTML page runs through
// spellweb.Searcher, so a degraded scatter is disclosed on the
// page, not silently rendered as a full-compendium ranking.
func TestCoordinatorHTMLDisclosesDegraded(t *testing.T) {
	top := newShardTopology(t, 2, shard.Config{Deadline: 500 * time.Millisecond})
	// Healthy probe uses a different gene subset than the degraded probe:
	// the full merge it caches must not be a (correct) cache hit for the
	// post-kill query below.
	rec := get(t, top.coord, "/search?q="+strings.Join(top.query[:3], ","))
	if rec.Code != http.StatusOK || strings.Contains(rec.Body.String(), "degraded result") {
		t.Fatalf("healthy page = %d, degraded note present: %v", rec.Code,
			strings.Contains(rec.Body.String(), "degraded result"))
	}
	top.fleet.Kill(1)
	rec = get(t, top.coord, "/search?q="+strings.Join(top.query, ","))
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded page = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "degraded result: only 1 of 2 shards answered") {
		t.Fatal("degraded scatter not disclosed on the HTML page")
	}
}

func enrichURL(genes []string) string {
	return "/api/enrich?genes=" + strings.Join(genes, ",")
}

// scatterEnrichBody is the coordinator /api/enrich body under test: the
// enrichment table plus the disclosed scatter tallies.
type scatterEnrichBody struct {
	Selection   []string           `json:"selection"`
	Ignored     []string           `json:"ignored"`
	Background  int                `json:"background"`
	Results     []golem.Enrichment `json:"results"`
	Degraded    bool               `json:"degraded"`
	ShardsOK    int                `json:"shards_ok"`
	ShardsTotal int                `json:"shards_total"`
	GroupsOK    int                `json:"groups_ok"`
	GroupsTotal int                `json:"groups_total"`
}

// assertEnrichBodyParity compares a coordinator enrich body against the
// single-process analysis: identical term order, counts, and p-values to
// 1e-12.
func assertEnrichBodyParity(t *testing.T, body *scatterEnrichBody, want []golem.Enrichment) {
	t.Helper()
	if len(body.Results) != len(want) {
		t.Fatalf("%d results, want %d", len(body.Results), len(want))
	}
	for i := range want {
		g, w := body.Results[i], want[i]
		if g.TermID != w.TermID || g.Selected != w.Selected || g.Background != w.Background ||
			g.SelectionSize != w.SelectionSize || g.BackgroundSize != w.BackgroundSize {
			t.Fatalf("rank %d: %+v vs %+v", i, g, w)
		}
		if math.Abs(g.PValue-w.PValue) > 1e-12 || math.Abs(g.FDR-w.FDR) > 1e-12 {
			t.Fatalf("rank %d p-values: %v/%v vs %v/%v", i, g.PValue, g.FDR, w.PValue, w.FDR)
		}
	}
}

// TestCoordinatorEnrichMatchesSingleProcess is the tentpole acceptance
// test at the HTTP layer: /api/enrich on a coordinator returns exactly the
// single-process analysis — same term order, same counts, p-values to
// 1e-12 — across shard counts and replication factors, discloses the
// scatter tallies, and caches the merged table.
func TestCoordinatorEnrichMatchesSingleProcess(t *testing.T) {
	cases := []struct {
		name              string
		shards, repl, dss int
	}{
		{"1shard-r1", 1, 1, 6},
		{"2shards-r1", 2, 1, 6},
		{"3shards-r2", 3, 2, 6},
		{"5shards-r2", 5, 2, 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			top := newEnrichedTopology(t, tc.shards, tc.dss,
				shard.Config{Deadline: 5 * time.Second, Replication: tc.repl},
				func(int) bool { return true })
			genes := top.u.ModuleGeneIDs(3)
			rec := get(t, top.coord, enrichURL(genes))
			if rec.Code != http.StatusOK {
				t.Fatalf("enrich = %d: %s", rec.Code, rec.Body.String())
			}
			if h := rec.Header().Get("X-Forestview-Degraded"); h != "false" {
				t.Fatalf("degraded header = %q", h)
			}
			if rec.Header().Get("X-Forestview-Shards-Ok") == "" || rec.Header().Get("X-Forestview-Shards-Total") == "" {
				t.Fatal("shard tally headers missing")
			}
			var body scatterEnrichBody
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatal(err)
			}
			if body.Degraded || body.GroupsOK != body.GroupsTotal || body.GroupsTotal == 0 {
				t.Fatalf("scatter tallies: degraded=%v groups %d/%d", body.Degraded, body.GroupsOK, body.GroupsTotal)
			}
			if body.ShardsTotal != tc.shards {
				t.Fatalf("shards_total = %d, want %d", body.ShardsTotal, tc.shards)
			}
			if body.Background != top.enr.BackgroundSize() {
				t.Fatalf("background = %d, want %d", body.Background, top.enr.BackgroundSize())
			}
			if len(body.Ignored) != 0 || len(body.Selection) != len(spell.CanonicalQuery(genes)) {
				t.Fatalf("selection disclosure: tested %d, ignored %v", len(body.Selection), body.Ignored)
			}
			want, err := top.enr.Analyze(genes, golem.Options{MinSelected: 1})
			if err != nil {
				t.Fatal(err)
			}
			assertEnrichBodyParity(t, &body, want)

			// Second identical request: merged-table cache hit, no rescatter.
			before := statsOf(t, top.coord, "enrich")
			if rec := get(t, top.coord, enrichURL(genes)); rec.Code != http.StatusOK {
				t.Fatalf("repeat = %d", rec.Code)
			}
			after := statsOf(t, top.coord, "enrich")
			if after.CacheHits != before.CacheHits+1 || after.Computed != before.Computed {
				t.Fatalf("repeat not served from cache: before %+v after %+v", before, after)
			}
			var snap StatsSnapshot
			if err := json.Unmarshal(get(t, top.coord, "/api/stats").Body.Bytes(), &snap); err != nil {
				t.Fatal(err)
			}
			if p := snap.Cache.Prefixes["escatter"]; p.Entries == 0 || p.Bytes == 0 {
				t.Fatalf("escatter prefix occupancy: %+v", snap.Cache.Prefixes)
			}
		})
	}
}

// shardInfoOf fetches and decodes one shard's /api/shard/v1/info.
func shardInfoOf(t *testing.T, url string) shard.Info {
	t.Helper()
	resp, err := http.Get(url + shard.InfoPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("info = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var info shard.Info
	if err := info.UnmarshalBinary(body); err != nil {
		t.Fatal(err)
	}
	return info
}

// TestMixedFleetCapabilities pins the capability negotiation: in a fleet
// where only some shards carry an ontology, each shard's info advertises
// exactly what it serves, enrich paths 404 on incapable shards, and the
// coordinator still answers /api/enrich exactly and non-degraded — any
// capable shard can serve any background slice, so dark shards cost
// nothing while one capable shard is reachable.
func TestMixedFleetCapabilities(t *testing.T) {
	top := newEnrichedTopology(t, 3, 6,
		shard.Config{Deadline: 5 * time.Second},
		func(i int) bool { return i != 1 }) // shard-1 boots without an ontology

	wantCaps := map[int][]string{
		0: {shard.CapabilitySearch, shard.CapabilityEnrich},
		1: {shard.CapabilitySearch},
		2: {shard.CapabilitySearch, shard.CapabilityEnrich},
	}
	for si := range top.fleet.Members() {
		info := shardInfoOf(t, top.fleet.URL(si))
		if fmt.Sprint(info.Capabilities) != fmt.Sprint(wantCaps[si]) {
			t.Fatalf("shard %d capabilities = %v, want %v", si, info.Capabilities, wantCaps[si])
		}
	}
	// The incapable shard 404s on both enrich paths — that is the protocol's
	// "unsupported" signal.
	for _, path := range []string{shard.EnrichPath, shard.EnrichCatalogPath} {
		resp, err := http.Get(top.fleet.URL(1) + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("dark shard %s = %d, want 404", path, resp.StatusCode)
		}
	}

	genes := top.u.ModuleGeneIDs(4)
	rec := get(t, top.coord, enrichURL(genes))
	if rec.Code != http.StatusOK {
		t.Fatalf("mixed-fleet enrich = %d: %s", rec.Code, rec.Body.String())
	}
	if h := rec.Header().Get("X-Forestview-Degraded"); h != "false" {
		t.Fatalf("degraded header = %q (capable shards should cover every slice)", h)
	}
	var body scatterEnrichBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	want, err := top.enr.Analyze(genes, golem.Options{MinSelected: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertEnrichBodyParity(t, &body, want)

	// Search is untouched by the capability split.
	if rec := get(t, top.coord, searchURL(top.query)); rec.Code != http.StatusOK {
		t.Fatalf("search on mixed fleet = %d", rec.Code)
	}
}

// TestCoordinatorEnrichNoOntology: a fleet with no capable shard answers
// /api/enrich with the same 503/no_ontology contract as a single daemon
// booted without an ontology.
func TestCoordinatorEnrichNoOntology(t *testing.T) {
	top := newShardTopology(t, 2, shard.Config{Deadline: time.Second})
	rec := get(t, top.coord, "/api/enrich?genes=G1,G2")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("enrich on ontology-less fleet = %d: %s", rec.Code, rec.Body.String())
	}
	if code, _ := errorEnvelopeOf(t, rec.Body.Bytes()); code != codeNoOntology {
		t.Fatalf("error code = %q, want %q", code, codeNoOntology)
	}
}

// TestCoordinatorEnrichReplicatedFailover: killing one shard of an R=2
// fleet must not degrade enrichment — the surviving replica (or any other
// capable shard, via the scavenge pass) serves every background slice and
// the merged table stays exact.
func TestCoordinatorEnrichReplicatedFailover(t *testing.T) {
	top := newEnrichedTopology(t, 3, 6,
		shard.Config{Deadline: 2 * time.Second, Replication: 2},
		func(int) bool { return true })
	top.fleet.Kill(1)
	genes := top.u.ModuleGeneIDs(3)
	rec := get(t, top.coord, enrichURL(genes))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-kill enrich = %d: %s", rec.Code, rec.Body.String())
	}
	if h := rec.Header().Get("X-Forestview-Degraded"); h != "false" {
		t.Fatalf("degraded header = %q (replica failover should hide the dead shard)", h)
	}
	var body scatterEnrichBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	want, err := top.enr.Analyze(genes, golem.Options{MinSelected: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertEnrichBodyParity(t, &body, want)
}

// TestSingleAndFleetAgreeOnTies: genes tied to the bit rank in one order, gene
// ID, and a single daemon and a coordinator over two shards answer the same
// body — with and without the top cut, shard.Meta's fields removed — because
// both finish one exact sum with one ranking; and a query the compendium
// lacks is the same refusal from both. The
// compendium is spell's TestRankingTieOrder fixture over two datasets: the
// Z*, M* and A* genes are copies of one row, first seen in another order
// than their IDs sort in.
func TestSingleAndFleetAgreeOnTies(t *testing.T) {
	mk := func(name string, q1, q2, twin, loner []float64) *microarray.Dataset {
		ds := &microarray.Dataset{Name: name, Experiments: make([]string, len(q1))}
		for _, g := range []struct {
			id  string
			row []float64
		}{
			{"Q1", q1}, {"Z9", twin}, {"M5", twin}, {"Q2", q2}, {"TOP", loner}, {"A1", twin}, {"Z1", twin},
		} {
			ds.Genes = append(ds.Genes, microarray.Gene{ID: g.id, Name: g.id})
			ds.Data = append(ds.Data, g.row)
		}
		return ds
	}
	dss := []*microarray.Dataset{
		mk("first", []float64{1, 2, 3, 4, 6}, []float64{2, 3, 5, 4, 7}, []float64{3, 1, 4, 1, 5}, []float64{1, 2, 3, 5, 6.5}),
		mk("second", []float64{2, 1, 4, 3, 5, 7}, []float64{3, 1, 5, 4, 5, 9}, []float64{2, 7, 1, 8, 2, 8}, []float64{2, 1, 4, 3, 6, 8}),
	}
	top := &shardTopology{}
	startFleet(t, top, dss, 2, shard.Config{Deadline: 5 * time.Second}, nil)
	single := singleDaemon(t, top.full)
	for _, url := range []string{"/api/search?q=Q1,Q2", "/api/search?q=Q1,Q2&top=4", "/api/search?q=Q1,Q2&top=5", "/api/search?q=Q2,Q1&top=6"} {
		one, fleet := searchBody(t, single, url), searchBody(t, top.coord, url)
		if !bytes.Equal(one, fleet) {
			t.Errorf("%s: bodies differ:\nsingle %s\nfleet  %s", url, one, fleet)
		}
		// The tied block, as far as the cut lets it through, is in ID order.
		var body scatterBody
		if err := json.Unmarshal(one, &body); err != nil {
			t.Fatal(err)
		}
		var twins []string
		for _, g := range body.Genes {
			if g.ID[0] != 'Q' && g.ID != "TOP" {
				twins = append(twins, g.ID)
			}
		}
		if want := []string{"A1", "M5", "Z1", "Z9"}[:len(twins)]; len(twins) == 0 || !slices.Equal(twins, want) {
			t.Errorf("%s: tied genes rank %v, want %v (of %s)", url, twins, want, one)
		}
	}

	one, fleet := get(t, single, "/api/search?q=NOPE1,NOPE2"), get(t, top.coord, "/api/search?q=NOPE1,NOPE2")
	oneCode, oneMsg := errorEnvelopeOf(t, one.Body.Bytes())
	fleetCode, fleetMsg := errorEnvelopeOf(t, fleet.Body.Bytes())
	if one.Code != http.StatusUnprocessableEntity || oneCode != codeUnprocessable || !strings.Contains(oneMsg, spell.ErrNoQueryGenes.Error()) {
		t.Errorf("absent genes, single daemon: %d %s %q, want a 422 %s saying ErrNoQueryGenes", one.Code, oneCode, oneMsg, codeUnprocessable)
	}
	if fleet.Code != one.Code || fleetCode != oneCode || fleetMsg != oneMsg {
		t.Errorf("absent genes: fleet answers %d %s %q, single daemon %d %s %q", fleet.Code, fleetCode, fleetMsg, one.Code, oneCode, oneMsg)
	}
}

// TestAPIErrorEnvelope pins the uniform error contract: every /api/* error
// path answers {"error": {"code", "message"}} with a stable code and the
// pinned status.
func TestAPIErrorEnvelope(t *testing.T) {
	single, u := fixture(t)
	shardS, _ := fixtureShard(t)
	top := newShardTopology(t, 2, shard.Config{Deadline: time.Second})
	bare := singleDaemon(t, fixEngine)
	gene := u.ModuleGeneIDs(1)[0]

	cases := []struct {
		name     string
		srv      *Server
		method   string
		url      string
		wantCode int
		want     string
	}{
		{"search missing q", single, http.MethodGet, "/api/search", http.StatusBadRequest, codeMissingParameter},
		{"search bad top", single, http.MethodGet, "/api/search?q=A,B&top=zero", http.StatusBadRequest, codeBadParameter},
		{"search not UTF-8", single, http.MethodGet, "/api/search?q=A,%FF", http.StatusBadRequest, codeBadParameter},
		{"search single gene", single, http.MethodGet, "/api/search?q=" + gene, http.StatusUnprocessableEntity, codeSingleGeneQuery},
		{"enrich missing genes", single, http.MethodGet, "/api/enrich", http.StatusBadRequest, codeMissingParameter},
		{"enrich bad maxp", single, http.MethodGet, "/api/enrich?genes=A&maxp=7", http.StatusBadRequest, codeBadParameter},
		{"enrich NaN maxp", single, http.MethodGet, "/api/enrich?genes=A&maxp=NaN", http.StatusBadRequest, codeBadParameter},
		{"enrich NaN maxp, coordinator", top.coord, http.MethodGet, "/api/enrich?genes=A&maxp=NaN", http.StatusBadRequest, codeBadParameter},
		{"enrich not UTF-8", single, http.MethodGet, "/api/enrich?genes=A,%FF", http.StatusBadRequest, codeBadParameter},
		{"enrich unknown genes", single, http.MethodGet, "/api/enrich?genes=NOPE999", http.StatusUnprocessableEntity, codeNoSelectionGenes},
		{"enrich no ontology", bare, http.MethodGet, "/api/enrich?genes=A", http.StatusServiceUnavailable, codeNoOntology},
		{"heatmap missing dataset", single, http.MethodGet, "/api/heatmap", http.StatusBadRequest, codeMissingParameter},
		{"heatmap unknown dataset", single, http.MethodGet, "/api/heatmap?dataset=99", http.StatusNotFound, codeUnknownDataset},
		{"heatmap bad rows", single, http.MethodGet, "/api/heatmap?dataset=0&rows=5:2", http.StatusBadRequest, codeBadParameter},
		{"shard search GET", shardS, http.MethodGet, shard.SearchPath, http.StatusMethodNotAllowed, codeMethodNotAllowed},
		{"shard enrich GET", shardS, http.MethodGet, shard.EnrichPath, http.StatusMethodNotAllowed, codeMethodNotAllowed},
		{"fleet no token", top.coord, http.MethodGet, "/api/admin/fleet", http.StatusForbidden, codeForbidden},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req := httptest.NewRequest(c.method, c.url, nil)
			rec := httptest.NewRecorder()
			c.srv.ServeHTTP(rec, req)
			if rec.Code != c.wantCode {
				t.Fatalf("status = %d, want %d (%s)", rec.Code, c.wantCode, rec.Body.String())
			}
			if code, _ := errorEnvelopeOf(t, rec.Body.Bytes()); code != c.want {
				t.Fatalf("error code = %q, want %q", code, c.want)
			}
		})
	}
}
