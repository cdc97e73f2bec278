package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"forestview/internal/cluster"
	"forestview/internal/core"
	"forestview/internal/golem"
	"forestview/internal/microarray"
	"forestview/internal/shard"
	"forestview/internal/spell"
	"forestview/internal/synth"
)

// pngMagic is the 8-byte PNG file signature.
var pngMagic = []byte{0x89, 'P', 'N', 'G', '\r', '\n', 0x1a, '\n'}

var (
	fixOnce     sync.Once
	fixUniverse *synth.Universe
	fixDatasets []*microarray.Dataset
	fixEngine   *spell.Engine
	fixEnricher *golem.Enricher
	fixPanes    []*core.ClusteredDataset
)

// fixture builds one small demo compendium shared by every test; each test
// still gets its own Server (and therefore its own cache and counters).
func fixture(t testing.TB) (*Server, *synth.Universe) {
	t.Helper()
	fixOnce.Do(func() {
		u := synth.NewUniverse(250, 8, 42)
		dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
			NumDatasets: 4, MinExperiments: 10, MaxExperiments: 14,
			ActiveFraction: 0.5, Noise: 0.25, MissingRate: 0.02, Seed: 43,
		})
		engine, err := spell.NewEngine(dss)
		if err != nil {
			panic(err)
		}
		onto, ann, err := u.Ontology(44)
		if err != nil {
			panic(err)
		}
		enr, err := golem.NewEnricher(onto, ann, u.GeneIDs())
		if err != nil {
			panic(err)
		}
		var panes []*core.ClusteredDataset
		for _, ds := range dss {
			cd, err := core.Cluster(ds, core.ClusterOptions{
				Metric: cluster.PearsonDist, Linkage: cluster.AverageLinkage,
			})
			if err != nil {
				panic(err)
			}
			panes = append(panes, cd)
		}
		fixUniverse, fixDatasets, fixEngine, fixEnricher, fixPanes = u, dss, engine, enr, panes
	})
	srv, err := New(Config{
		Engine: fixEngine, Enricher: fixEnricher, Datasets: fixPanes,
		CacheBytes: 8 << 20, RenderWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, fixUniverse
}

// errorEnvelopeOf parses the uniform /api/* error body and returns its
// (code, message) pair, failing the test on any shape deviation.
func errorEnvelopeOf(t *testing.T, body []byte) (code, msg string) {
	t.Helper()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body is not JSON: %v (%q)", err, body)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("error body missing code or message: %q", body)
	}
	return env.Error.Code, env.Error.Message
}

func get(t *testing.T, s *Server, url string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec
}

func statsOf(t *testing.T, s *Server, endpoint string) EndpointSnapshot {
	t.Helper()
	rec := get(t, s, "/api/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/stats = %d", rec.Code)
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	ep, ok := snap.Endpoints[endpoint]
	if !ok {
		t.Fatalf("endpoint %q missing from stats", endpoint)
	}
	return ep
}

func TestHealthz(t *testing.T) {
	s, _ := fixture(t)
	rec := get(t, s, "/healthz")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz = %d %q", rec.Code, rec.Body.String())
	}
}

func TestSearchJSON(t *testing.T) {
	s, u := fixture(t)
	ids := u.ModuleGeneIDs(3)
	rec := get(t, s, "/api/search?q="+strings.Join(ids[:3], ",")+"&top=10")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var res spell.Result
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Datasets) != 4 {
		t.Fatalf("datasets = %d, want 4", len(res.Datasets))
	}
	if len(res.Genes) == 0 || len(res.Genes) > 10 {
		t.Fatalf("genes = %d, want 1..10", len(res.Genes))
	}
	for i := 1; i < len(res.Datasets); i++ {
		if res.Datasets[i].Weight > res.Datasets[i-1].Weight {
			t.Fatal("dataset ranking not sorted by weight")
		}
	}
}

func TestSearchErrors(t *testing.T) {
	s, _ := fixture(t)
	if rec := get(t, s, "/api/search"); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing q = %d", rec.Code)
	}
	if rec := get(t, s, "/api/search?q=NOPE999"); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("unknown gene = %d", rec.Code)
	}
	if rec := get(t, s, "/api/search?q=A&top=zero"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad top = %d", rec.Code)
	}
}

func TestEnrichJSON(t *testing.T) {
	s, u := fixture(t)
	genes := u.ModuleGeneIDs(u.ESRInduced)
	rec := get(t, s, "/api/enrich?genes="+strings.Join(genes, ","))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var res enrichResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Background != fixEnricher.BackgroundSize() {
		t.Fatalf("background = %d", res.Background)
	}
	if len(res.Results) == 0 {
		t.Fatal("no enrichment results for a planted module")
	}
	for i := 1; i < len(res.Results); i++ {
		if res.Results[i].PValue < res.Results[i-1].PValue {
			t.Fatal("results not sorted by p-value")
		}
	}
	// The planted module's own term must be the top hit.
	if res.Results[0].Selected < 2 {
		t.Fatalf("top term selects %d genes", res.Results[0].Selected)
	}
}

func TestEnrichErrors(t *testing.T) {
	s, _ := fixture(t)
	if rec := get(t, s, "/api/enrich"); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing genes = %d", rec.Code)
	}
	// NaN parses as a float and is neither below 0 nor above 1.
	for _, maxp := range []string{"7", "-0.1", "NaN", "-nan", "Inf", "0x1p1", "1e"} {
		if rec := get(t, s, "/api/enrich?genes=A&maxp="+maxp); rec.Code != http.StatusBadRequest {
			t.Fatalf("maxp=%s = %d, want 400", maxp, rec.Code)
		}
	}
	if rec := get(t, s, "/api/enrich?genes=NOPE999"); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("unknown genes = %d", rec.Code)
	}

	bare, err := New(Config{Engine: fixEngine})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bare.Close)
	if rec := get(t, bare, "/api/enrich?genes=A"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("no enricher = %d", rec.Code)
	}
}

// TestEnrichMaxPZeroIsOneKey: maxp=0 means no filter, and every spelling of
// it — none, 0, -0 — is one cache entry, not three copies of one table.
func TestEnrichMaxPZeroIsOneKey(t *testing.T) {
	s, u := fixture(t)
	url := "/api/enrich?genes=" + strings.Join(u.ModuleGeneIDs(2), ",")
	want := get(t, s, url)
	if want.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", want.Code, want.Body.String())
	}
	for _, maxp := range []string{"0", "-0", "0e0", "-0x0p0"} {
		rec := get(t, s, url+"&maxp="+maxp)
		if rec.Code != http.StatusOK || rec.Header().Get(cacheHeader) != dispHit || !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("maxp=%s: status %d, cache %q, same body %t; want a hit on the unfiltered entry",
				maxp, rec.Code, rec.Header().Get(cacheHeader), bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()))
		}
	}
}

func TestHeatmapPNG(t *testing.T) {
	s, _ := fixture(t)
	rec := get(t, s, "/api/heatmap?dataset=0&w=128&h=96")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "image/png" {
		t.Fatalf("content type = %q", ct)
	}
	if !bytes.HasPrefix(rec.Body.Bytes(), pngMagic) {
		t.Fatalf("body does not start with PNG magic: % x", rec.Body.Bytes()[:8])
	}

	// Address the same dataset by name, with a row range and colormap.
	name := fixPanes[1].Data.Name
	rec = get(t, s, "/api/heatmap?dataset="+strings.ReplaceAll(name, " ", "%20")+"&rows=0:50&cmap=grayscale&limit=1.5")
	if rec.Code != http.StatusOK || !bytes.HasPrefix(rec.Body.Bytes(), pngMagic) {
		t.Fatalf("by-name tile: %d", rec.Code)
	}
}

func TestHeatmapErrors(t *testing.T) {
	s, _ := fixture(t)
	cases := []struct {
		url  string
		want int
	}{
		{"/api/heatmap", http.StatusBadRequest},
		{"/api/heatmap?dataset=99", http.StatusNotFound},
		{"/api/heatmap?dataset=nope", http.StatusNotFound},
		{"/api/heatmap?dataset=0&w=0", http.StatusBadRequest},
		{"/api/heatmap?dataset=0&w=99999", http.StatusBadRequest},
		{"/api/heatmap?dataset=0xyz", http.StatusNotFound},
		{"/api/heatmap?dataset=0&rows=5:2", http.StatusBadRequest},
		{"/api/heatmap?dataset=0&rows=0:5junk", http.StatusBadRequest},
		{"/api/heatmap?dataset=0&rows=100000:100002", http.StatusBadRequest},
		{"/api/heatmap?dataset=0&cmap=sepia", http.StatusBadRequest},
		{"/api/heatmap?dataset=0&limit=-1", http.StatusBadRequest},
		{"/api/heatmap?dataset=0&limit=NaN", http.StatusBadRequest},
		{"/api/heatmap?dataset=0&limit=Inf", http.StatusBadRequest},
	}
	for _, c := range cases {
		if rec := get(t, s, c.url); rec.Code != c.want {
			t.Errorf("%s = %d, want %d", c.url, rec.Code, c.want)
		}
	}
}

func TestCacheHitVsMiss(t *testing.T) {
	s, u := fixture(t)
	ids := u.ModuleGeneIDs(2)[:3]
	q := strings.Join(ids, ",")

	if rec := get(t, s, "/api/search?q="+q); rec.Code != http.StatusOK {
		t.Fatalf("first search = %d", rec.Code)
	}
	ep := statsOf(t, s, "search")
	if ep.CacheMisses != 1 || ep.CacheHits != 0 || ep.Computed != 1 {
		t.Fatalf("after miss: %+v", ep)
	}

	// Same gene set, different order and a duplicate: canonicalization
	// must make it the same cache key.
	shuffled := strings.Join([]string{ids[2], ids[0], ids[1], ids[0]}, ",")
	if rec := get(t, s, "/api/search?q="+shuffled); rec.Code != http.StatusOK {
		t.Fatalf("second search = %d", rec.Code)
	}
	ep = statsOf(t, s, "search")
	if ep.CacheHits != 1 || ep.Computed != 1 {
		t.Fatalf("after hit: %+v", ep)
	}

	// Tiles cache too.
	for i := 0; i < 2; i++ {
		if rec := get(t, s, "/api/heatmap?dataset=0&w=64&h=64"); rec.Code != http.StatusOK {
			t.Fatalf("tile %d = %d", i, rec.Code)
		}
	}
	hep := statsOf(t, s, "heatmap")
	if hep.CacheHits != 1 || hep.CacheMisses != 1 || hep.Computed != 1 {
		t.Fatalf("tile cache: %+v", hep)
	}
}

// TestHTMLSharesSearchCache proves the spellweb HTML page and the JSON API
// run through one cache: an HTML search warms the entry the API then hits.
func TestHTMLSharesSearchCache(t *testing.T) {
	s, u := fixture(t)
	ids := u.ModuleGeneIDs(4)[:3]
	q := strings.Join(ids, ",")

	rec := get(t, s, "/search?q="+q)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "Datasets by relevance") {
		t.Fatalf("HTML search = %d", rec.Code)
	}
	html := statsOf(t, s, "html")
	if html.Requests != 1 || html.Computed != 1 {
		t.Fatalf("HTML search accounting: %+v", html)
	}

	// The HTML page searches with MaxGenes=50; the API asking for the same
	// must hit the HTML-warmed entry without computing anything.
	if rec := get(t, s, "/api/search?q="+q+"&top=50"); rec.Code != http.StatusOK {
		t.Fatalf("API search = %d", rec.Code)
	}
	ep := statsOf(t, s, "search")
	if ep.CacheHits != 1 || ep.Computed != 0 {
		t.Fatalf("API did not hit the HTML-warmed cache: %+v", ep)
	}
}

// TestHitServesTheCachedBody: a daemon caches /api/search and /api/enrich
// answers with their encoded bodies, so a hit — of an entry the API or the
// HTML page computed — must carry byte for byte what the miss carried, with
// its length declared: what encoding the library's answer gives, with the
// meta of a fleet of one. A single daemon and a coordinator over one shard
// holding everything answer alike.
func TestHitServesTheCachedBody(t *testing.T) {
	single, u := fixture(t)
	ids := spell.CanonicalQuery(u.ModuleGeneIDs(3)[:3])
	q := strings.Join(ids, ",")
	one := shard.Meta{ShardsOK: 1, ShardsTotal: 1, Replication: 1, GroupsOK: 1, GroupsTotal: 1}
	eres, err := fixEnricher.Analyze(ids, golem.Options{MinSelected: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantEnrich, _ := encodeJSON(enrichResponse{Selection: ids, Background: fixEnricher.BackgroundSize(), Results: eres, Meta: one})

	wantSearch := func(top int) []byte {
		res, err := fixEngine.Search(ids, spell.Options{MaxGenes: top, IncludeQuery: true})
		if err != nil {
			t.Fatal(err)
		}
		body, _ := encodeJSON(scatterSearchResponse{res, one}) // SPELL sums are bit-stable run to run
		return body
	}

	for name, s := range map[string]*Server{"single": single, "coordinator": fleetOfOne(t)} {
		if rec := get(t, s, "/search?q="+q); rec.Code != http.StatusOK { // MaxGenes 50, warms the API's entry
			t.Fatalf("%s: HTML search = %d", name, rec.Code)
		}
		for _, c := range []struct {
			url   string
			want  []byte
			disps []string
		}{
			{"/api/search?q=" + q + "&top=50", wantSearch(50), []string{dispHit, dispHit}},
			{"/api/search?q=" + q + "&top=7", wantSearch(7), []string{dispMiss, dispHit}},
			{"/api/enrich?genes=" + q, wantEnrich, []string{dispMiss, dispHit}},
		} {
			for _, disp := range c.disps {
				rec := get(t, s, c.url)
				if rec.Code != http.StatusOK || rec.Header().Get(cacheHeader) != disp {
					t.Fatalf("%s: %s = %d %q, want 200 %q", name, c.url, rec.Code, rec.Header().Get(cacheHeader), disp)
				}
				if !bytes.Equal(rec.Body.Bytes(), c.want) {
					t.Fatalf("%s: %s (%s) body differs:\n got %s\nwant %s", name, c.url, disp, rec.Body, c.want)
				}
				if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(c.want)) {
					t.Fatalf("%s: %s (%s) Content-Length = %q, want %d", name, c.url, disp, got, len(c.want))
				}
			}
		}
		if n := s.encodeFailures.Load(); n != 0 {
			t.Fatalf("%s: encode failures = %d, want 0", name, n)
		}
	}
}

// TestConcurrentIdenticalQueriesComputeOnce is the coalescing proof: many
// goroutines hammer one query on a cold cache; the underlying SPELL search
// must execute exactly once. Run with -race.
func TestConcurrentIdenticalQueriesComputeOnce(t *testing.T) {
	s, u := fixture(t)
	ids := u.ModuleGeneIDs(5)
	if len(ids) > 4 {
		ids = ids[:4]
	}
	q := strings.Join(ids, ",")

	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rec := get(t, s, "/api/search?q="+q); rec.Code != http.StatusOK {
				t.Errorf("status = %d", rec.Code)
			}
		}()
	}
	wg.Wait()

	ep := statsOf(t, s, "search")
	if ep.Computed != 1 {
		t.Fatalf("computed = %d, want exactly 1 (coalescing failed)", ep.Computed)
	}
	if ep.Requests != n {
		t.Fatalf("requests = %d, want %d", ep.Requests, n)
	}
	if ep.CacheHits+ep.CacheMisses != n {
		t.Fatalf("hits(%d)+misses(%d) != %d", ep.CacheHits, ep.CacheMisses, n)
	}
	// Every miss either computed, joined a flight, or found the result on
	// the in-flight re-check; the accounting must close.
	if ep.Coalesced+ep.Computed > ep.CacheMisses {
		t.Fatalf("accounting: coalesced=%d computed=%d misses=%d", ep.Coalesced, ep.Computed, ep.CacheMisses)
	}

	// Concurrent identical tiles coalesce the render too.
	var wg2 sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			if rec := get(t, s, "/api/heatmap?dataset=1&w=80&h=60"); rec.Code != http.StatusOK {
				t.Errorf("tile status = %d", rec.Code)
			}
		}()
	}
	wg2.Wait()
	if hep := statsOf(t, s, "heatmap"); hep.Computed != 1 {
		t.Fatalf("tile computed = %d, want 1", hep.Computed)
	}
}

func TestStatsShape(t *testing.T) {
	s, _ := fixture(t)
	rec := get(t, s, "/api/stats")
	var snap StatsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Compendium.Datasets != 4 || snap.Compendium.Genes == 0 {
		t.Fatalf("compendium info: %+v", snap.Compendium)
	}
	if snap.Compendium.GOTerms == 0 {
		t.Fatal("GO term count missing")
	}
	if snap.Cache.MaxBytes != 8<<20 {
		t.Fatalf("cache max bytes = %d", snap.Cache.MaxBytes)
	}
	if snap.TreeCache.Panes != 4 {
		t.Fatalf("tree_cache panes = %d, want 4", snap.TreeCache.Panes)
	}
	// Each number once: no field copies another (server.uptime_seconds,
	// cache.prefixes, endpoints.enrich, compendium.go_terms,
	// tree_cache.panes).
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for section, copies := range map[string][]string{
		"":             {"uptime_seconds"},
		"compendium":   {"clustered_datasets"},
		"tree_cache":   {"tile_entries", "tile_bytes"},
		"enrich_cache": {"terms", "hits", "misses", "coalesced", "entries", "bytes"},
	} {
		sec := raw
		if section != "" {
			sec = nil // a fresh map: Unmarshal adds to a live one
			if err := json.Unmarshal(raw[section], &sec); err != nil {
				t.Fatalf("%s: %v", section, err)
			}
		}
		for _, k := range copies {
			if _, ok := sec[k]; ok {
				t.Fatalf("section %q has %q, a copy of another field", section, k)
			}
		}
	}
	for _, ep := range []string{"search", "enrich", "heatmap", "html", "stats"} {
		if _, ok := snap.Endpoints[ep]; !ok {
			t.Fatalf("endpoint %q missing", ep)
		}
	}
}

func TestServerRequiresEngine(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil engine")
	}
}

// TestNewRefusesDuplicateDatasetNames: a catalog that names a dataset
// twice would boot and then answer every search 422 (the merge finds the
// name claimed twice), so New refuses it and names it, on a single daemon
// and on a shard alike.
func TestNewRefusesDuplicateDatasetNames(t *testing.T) {
	fixture(t)
	twin := fixDatasets[1].Clone()
	twin.Name = fixDatasets[0].Name
	engine, err := spell.NewEngine([]*microarray.Dataset{fixDatasets[0], twin})
	if err != nil {
		t.Fatal(err)
	}
	want := strconv.Quote(fixDatasets[0].Name)
	if _, err := New(Config{Engine: engine}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("single daemon: err = %v, want a refusal naming %s", err, want)
	}
	shardCfg := Config{Engine: fixEngine, ShardIndexes: []int{0, 1, 2, 3},
		ShardDatasetIDs: []string{"a", "b", "c", "b"}}
	if _, err := New(shardCfg); err == nil || !strings.Contains(err.Error(), `"b"`) {
		t.Errorf("shard: err = %v, want a refusal naming \"b\"", err)
	}
}

// TestPaneIndexFirstWins: of two panes with one name, pre-clustered or
// raw, the name resolves to the first.
func TestPaneIndexFirstWins(t *testing.T) {
	fixture(t)
	rename := func(ds *microarray.Dataset, name string) *microarray.Dataset {
		c := ds.Clone()
		c.Name = name
		return c
	}
	var panes []*core.ClusteredDataset
	for _, i := range []int{2, 3} {
		cd, err := core.FromDataset(rename(fixDatasets[i], "twin"))
		if err != nil {
			t.Fatal(err)
		}
		panes = append(panes, cd)
	}
	raw := []*microarray.Dataset{rename(fixDatasets[0], "raw"), rename(fixDatasets[1], "raw")}
	srv, err := New(Config{Engine: fixEngine, Datasets: panes, RawDatasets: raw})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got := srv.dsIndex["twin"]; got != 0 {
		t.Errorf("pre-clustered twin resolves to pane %d, want 0", got)
	}
	if got := srv.dsIndex["raw"]; got != 2 {
		t.Errorf("raw twin resolves to pane %d, want 2", got)
	}
}

// TestSearchSingleGeneRejected is the regression test for the pre-existing
// empty-200 bug: a one-gene query has no query pairs, every dataset's
// coherence is NaN, and the NaN used to kill the JSON encoder silently.
// The daemon now rejects it with 422 and a clear error body — including
// queries that collapse to one gene after canonicalization.
func TestSearchSingleGeneRejected(t *testing.T) {
	s, u := fixture(t)
	g := u.ModuleGeneIDs(1)[0]
	for _, q := range []string{g, g + "," + g, g + ",%20" + g} {
		rec := get(t, s, "/api/search?q="+q)
		if rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("q=%s: status = %d, want 422 (body %q)", q, rec.Code, rec.Body.String())
		}
		code, msg := errorEnvelopeOf(t, rec.Body.Bytes())
		if code != codeSingleGeneQuery {
			t.Fatalf("q=%s: error code %q, want %q", q, code, codeSingleGeneQuery)
		}
		if !strings.Contains(msg, "single-gene") {
			t.Fatalf("q=%s: unhelpful error %q", q, msg)
		}
	}
	// Two distinct genes still search fine.
	ids := u.ModuleGeneIDs(1)[:2]
	if rec := get(t, s, "/api/search?q="+strings.Join(ids, ",")); rec.Code != http.StatusOK {
		t.Fatalf("two-gene query = %d: %s", rec.Code, rec.Body.String())
	}
	if n := s.encodeFailures.Load(); n != 0 {
		t.Fatalf("encode failures = %d, want 0 — NaN reached the encoder", n)
	}
}

// TestSearchTypoQueryStillEncodes: two distinct IDs where one is a typo
// resolve to a single compendium gene — every dataset's coherence is NaN
// (the uniform-weight fallback ranks by the one real gene). The response
// must be valid JSON with null coherence, not the encoder-killed empty 200
// (or, post-writeJSON-hardening, a 500).
func TestSearchTypoQueryStillEncodes(t *testing.T) {
	s, u := fixture(t)
	g := u.ModuleGeneIDs(2)[0]
	rec := get(t, s, "/api/search?q="+g+",NOT-A-REAL-GENE&top=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"QueryCoherence":null`) {
		t.Fatalf("undefined coherence not encoded as null: %s", rec.Body.String())
	}
	var res spell.Result
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatalf("body is not valid JSON: %v", err)
	}
	if len(res.Genes) == 0 {
		t.Fatal("no ranked genes from the uniform-weight fallback")
	}
	if n := s.encodeFailures.Load(); n != 0 {
		t.Fatalf("encode failures = %d, want 0", n)
	}
}

// TestWriteJSONSurfacesEncodeErrors: an unencodable body must become a
// logged, counted 500 with an error payload — never again a silent empty
// 200.
func TestWriteJSONSurfacesEncodeErrors(t *testing.T) {
	s, _ := fixture(t)
	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, map[string]float64{"bad": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	code, msg := errorEnvelopeOf(t, rec.Body.Bytes())
	if code != codeEncodeFailed {
		t.Fatalf("error code %q, want %q", code, codeEncodeFailed)
	}
	if !strings.Contains(msg, "encoding failed") {
		t.Fatalf("error body = %q", msg)
	}
	if n := s.Stats().EncodeFailures; n != 1 {
		t.Fatalf("encode_failures = %d, want 1", n)
	}
}

// TestEnrichCacheStats: /api/stats grows an enrich_cache section whose
// analysis counter proves one kernel scan per distinct gene list — a
// reordered duplicate request is a pure cache hit.
func TestEnrichCacheStats(t *testing.T) {
	s, u := fixture(t)
	genes := u.ModuleGeneIDs(u.ESRInduced)
	if rec := get(t, s, "/api/enrich?genes="+strings.Join(genes, ",")); rec.Code != http.StatusOK {
		t.Fatalf("first enrich = %d", rec.Code)
	}
	// Same gene set, reversed order: canonicalization must hit the cache.
	rev := make([]string, len(genes))
	for i, g := range genes {
		rev[len(genes)-1-i] = g
	}
	if rec := get(t, s, "/api/enrich?genes="+strings.Join(rev, ",")); rec.Code != http.StatusOK {
		t.Fatalf("second enrich = %d", rec.Code)
	}

	rec := get(t, s, "/api/stats")
	var snap StatsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	ec := snap.EnrichCache
	if ec == nil {
		t.Fatal("enrich_cache section missing")
	}
	if ep := snap.Endpoints["enrich"]; ec.Analyses != 1 || ep.CacheMisses != 1 || ep.CacheHits != 1 {
		t.Fatalf("enrich cache accounting: %+v, endpoint %+v", ec, ep)
	}
	if snap.Compendium.GOTerms != fixEnricher.NumTerms() || ec.Background != fixEnricher.BackgroundSize() {
		t.Fatalf("enrich context info: %+v, compendium %+v", ec, snap.Compendium)
	}
	if ec.Canceled != 0 || ec.Failures != 0 {
		t.Fatalf("unexpected kernel errors: %+v", ec)
	}

	// A daemon without an ontology has no section at all.
	bare, err := New(Config{Engine: fixEngine})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bare.Close)
	if bare.Stats().EnrichCache != nil {
		t.Fatal("enrich_cache section present without an enricher")
	}
}

// TestEnrichClientCancel: a request whose client already hung up runs no
// analysis — it starts no flight — and the abort is accounted as a 499.
func TestEnrichClientCancel(t *testing.T) {
	s, u := fixture(t)
	genes := u.ModuleGeneIDs(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, "/api/enrich?genes="+strings.Join(genes, ","), nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("status = %d, want %d", rec.Code, statusClientClosedRequest)
	}
	if got := s.enrichKernel.analyses.Load(); got != 0 {
		t.Fatalf("analyses = %d, want 0", got)
	}
	// Nothing was cached either: a live client computes fresh and succeeds.
	if rec := get(t, s, "/api/enrich?genes="+strings.Join(genes, ",")); rec.Code != http.StatusOK {
		t.Fatalf("live retry = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestConcurrentIdenticalEnrichComputesOnce extends the coalescing proof to
// the enrichment path: many goroutines, one gene list, exactly one kernel
// scan.
func TestConcurrentIdenticalEnrichComputesOnce(t *testing.T) {
	s, u := fixture(t)
	q := strings.Join(u.ModuleGeneIDs(6), ",")
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rec := get(t, s, "/api/enrich?genes="+q); rec.Code != http.StatusOK {
				t.Errorf("status = %d", rec.Code)
			}
		}()
	}
	wg.Wait()
	if got := s.enrichKernel.analyses.Load(); got != 1 {
		t.Fatalf("kernel scans = %d, want exactly 1 (coalescing failed)", got)
	}
	if ep := statsOf(t, s, "enrich"); ep.Requests != n {
		t.Fatalf("requests = %d, want %d", ep.Requests, n)
	}
}

// TestStatsPrefixOccupancy: after one search, one enrichment and one tile,
// the cache's per-prefix occupancy surfaces in /api/stats' prefixes map,
// and its entries and bytes sum to the cache's.
func TestStatsPrefixOccupancy(t *testing.T) {
	s, u := fixture(t)
	q := strings.Join(u.ModuleGeneIDs(2)[:4], ",")
	if rec := get(t, s, "/api/search?q="+q); rec.Code != http.StatusOK {
		t.Fatalf("search = %d", rec.Code)
	}
	if rec := get(t, s, "/api/enrich?genes="+q); rec.Code != http.StatusOK {
		t.Fatalf("enrich = %d", rec.Code)
	}
	if rec := get(t, s, "/api/heatmap?dataset=0&w=32&h=32"); rec.Code != http.StatusOK {
		t.Fatalf("heatmap = %d", rec.Code)
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(get(t, s, "/api/stats").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	entries, size := 0, int64(0)
	for _, prefix := range []string{"scatter", "escatter", "tile"} {
		occ := snap.Cache.Prefixes[prefix]
		if occ.Entries != 1 || occ.Bytes <= 0 {
			t.Fatalf("prefix %q occupancy: %+v (map %+v)", prefix, occ, snap.Cache.Prefixes)
		}
		entries, size = entries+occ.Entries, size+occ.Bytes
	}
	if len(snap.Cache.Prefixes) != 3 || entries != snap.Cache.Entries || size != snap.Cache.Bytes {
		t.Fatalf("prefixes %+v do not sum to the cache's %d entries, %d bytes", snap.Cache.Prefixes, snap.Cache.Entries, snap.Cache.Bytes)
	}
}
