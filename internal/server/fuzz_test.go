package server

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"image"
	"image/png"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"forestview/internal/shard"
	"forestview/internal/spell"
	"forestview/internal/spellweb"
)

// groupRequestSeeds builds the FuzzShardPartialRequest seeds that name
// ownership groups, over fixtureShard's catalog under a 4-shard R=2 fleet:
// one group, every group in one batch, the uniform pair, a tuple named
// twice, a tuple the catalog never derives, an empty tuple, and more tuples
// than the catalog has groups. (The older seeds beside them name one group
// in an Owners field, as the protocol did before requests were batched; a
// shard reads those as whole-slice probes now.)
func groupRequestSeeds(t testing.TB, catalog, genes []string) map[string]any {
	t.Helper()
	fleet := []string{"shard-0", "shard-1", "shard-2", "shard-3"}
	groups := shard.Groups(catalog, fleet, 2)
	if len(groups) < 2 {
		t.Fatalf("fixture: %d ownership groups", len(groups))
	}
	foreign := []string{"shard-9", "shard-0"}
	many := make([][]string, len(groups)+1)
	for i := range many {
		many[i] = []string{fleet[i%len(fleet)], fleet[(i+1)%len(fleet)]}
	}
	out := map[string]any{
		"search-groups-uniform": shard.SearchRequest{Query: genes, Shards: fleet, Replication: 2, Groups: groups, Uniform: true},
	}
	for name, tuples := range map[string][][]string{
		"groups-one":         groups[:1],
		"groups-batch":       groups,
		"groups-duplicate":   {groups[0], groups[1], groups[0]},
		"groups-foreign":     {groups[0], foreign},
		"groups-empty-tuple": {groups[0], {}},
		"groups-too-many":    many,
	} {
		out["search-"+name] = shard.SearchRequest{Query: genes, Shards: fleet, Replication: 2, Groups: tuples}
		out["enrich-"+name] = shard.EnrichRequest{Selection: genes, Shards: fleet, Replication: 2, Groups: tuples}
	}
	return out
}

const requestCorpusDir = "testdata/fuzz/FuzzShardPartialRequest"

var updateRequestCorpus = flag.Bool("update-request-corpus", false, "rewrite the group seeds under "+requestCorpusDir+" from groupRequestSeeds")

// TestShardRequestCorpusCommitted keeps the committed group seeds decoding
// to the requests groupRequestSeeds builds, so that a change to the request
// types shows up as a stale corpus (regenerate with -update-request-corpus)
// instead of the fuzzer silently starting from bodies that no longer say
// what their names claim. (Not byte for byte: gob numbers types in the order
// a process first meets them.)
func TestShardRequestCorpusCommitted(t *testing.T) {
	s, u := fixtureShard(t)
	for name, want := range groupRequestSeeds(t, s.cfg.ShardDatasetIDs, u.ModuleGeneIDs(2)[:4]) {
		file := filepath.Join(requestCorpusDir, name)
		_, enrich := want.(shard.EnrichRequest)
		header := fmt.Sprintf("go test fuzz v1\nbool(%t)\n[]byte(", enrich)
		if *updateRequestCorpus {
			var body bytes.Buffer
			if err := gob.NewEncoder(&body).Encode(want); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, []byte(header+strconv.Quote(body.String())+")\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		seed, err := os.ReadFile(file)
		if err != nil {
			t.Errorf("%v: regenerate with -update-request-corpus", err)
			continue
		}
		quoted, ok := strings.CutPrefix(string(seed), header)
		quoted, ok2 := strings.CutSuffix(quoted, ")\n")
		body, err := strconv.Unquote(quoted)
		if !ok || !ok2 || err != nil {
			t.Errorf("%s is not a (bool, []byte) corpus entry for its endpoint", file)
			continue
		}
		var got any
		if enrich {
			var req shard.EnrichRequest
			err, got = gob.NewDecoder(strings.NewReader(body)).Decode(&req), req
		} else {
			var req shard.SearchRequest
			err, got = gob.NewDecoder(strings.NewReader(body)).Decode(&req), req
		}
		// gob drops empty slices; so does the comparison.
		if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s decodes to %v (%v), want %v: regenerate with -update-request-corpus", file, got, err, want)
		}
	}
}

// FuzzShardPartialRequest throws arbitrary bodies at the one decode-and-
// serve path behind /api/shard/v1/{search,enrich} (serveShardPartial): a
// hostile or version-skewed peer must not be able to panic a shard or
// balloon its answer. Whatever the bytes, the shard answers 200 or a 4xx —
// the only 5xx is the counted encode failure — and the response stays
// small. The seed corpus in testdata/fuzz holds valid gob requests for both
// endpoints over this fixture's catalog: groupless, the group seeds of
// groupRequestSeeds, replication 0 and beyond the fleet, an empty fleet, a
// truncated body, and requests naming one group the way the protocol did
// before batching. The 10k-member fleet and the 10k-tuple request are
// seeded here, being too bulky to commit.
func FuzzShardPartialRequest(f *testing.F) {
	s, u := fixtureShard(f)
	genes := u.ModuleGeneIDs(2)[:4]
	big := make([]string, 10000)
	tuples := make([][]string, len(big))
	for i := range big {
		big[i] = fmt.Sprintf("shard-%d", i)
		tuples[i] = []string{big[i], big[(i+1)%len(big)]}
	}
	for _, req := range []any{
		shard.SearchRequest{Query: genes, Shards: big, Replication: 2, Groups: tuples[:1]},
		shard.EnrichRequest{Selection: genes, Shards: big, Replication: 2, Groups: tuples[:1]},
		shard.SearchRequest{Query: genes, Shards: big[:3], Replication: 2, Groups: tuples},
		shard.EnrichRequest{Selection: genes, Shards: big[:3], Replication: 2, Groups: tuples},
	} {
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(req); err != nil {
			f.Fatal(err)
		}
		_, enrich := req.(shard.EnrichRequest)
		f.Add(enrich, b.Bytes())
	}
	f.Add(false, []byte("not gob"))

	f.Fuzz(func(t *testing.T, enrich bool, body []byte) {
		path := shard.SearchPath
		if enrich {
			path = shard.EnrichPath
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch {
		case rec.Code == http.StatusOK:
		case rec.Code >= 400 && rec.Code < 500:
			// A panic inside the computation is recovered by the flight
			// group and would otherwise pass for a query error.
			if strings.Contains(rec.Body.String(), "panicked") {
				t.Fatalf("request panicked the compute path: %s", rec.Body.String())
			}
		default:
			if code, _ := errorEnvelopeOf(t, rec.Body.Bytes()); code != codeEncodeFailed {
				t.Fatalf("status %d (%s): %s", rec.Code, code, rec.Body.String())
			}
		}
		// An answer is bounded by the shard's own compendium, never by the
		// request: well under the 1 MiB a request body may carry.
		if rec.Body.Len() > 1<<20 {
			t.Fatalf("%d-byte response to a %d-byte request", rec.Body.Len(), len(body))
		}
	})
}

// FuzzHeatmapQuery throws arbitrary query strings at /api/heatmap on a
// daemon that clusters both axes, so every parameter — rows, w, h, cmap,
// limit, tree, atree, level — reaches its validation and, when accepted,
// the rasterizer and the PNG writer. Whatever the bytes: no panic, no 5xx
// (nothing else is using the render pool), and a 200 is a PNG of the
// requested size that discloses its pyramid level. The seed corpus in
// testdata/fuzz holds the README's examples, every row of the
// bad-parameter tables, limit=NaN/Inf, level and tree/atree combinations,
// and the edges of MaxTileDim (300 here, to keep an execution cheap).
func FuzzHeatmapQuery(f *testing.F) {
	_, dss := rawFixture(f, 2)
	engine, err := spell.NewEngine(dss)
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(Config{
		Engine: engine, RawDatasets: dss, ClusterArrays: true,
		CacheBytes: 1 << 20, RenderWorkers: 2, RenderQueue: 64, MaxTileDim: 300,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)

	f.Fuzz(func(t *testing.T, rawQuery string) {
		req := httptest.NewRequest(http.MethodGet, "/api/heatmap", nil)
		req.URL.RawQuery = rawQuery // NewRequest would panic on bytes no request line can carry
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		switch {
		case rec.Code >= 500:
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		case rec.Code >= 400:
			if strings.Contains(rec.Body.String(), "panicked") {
				t.Fatalf("request panicked the render path: %s", rec.Body.String())
			}
		case rec.Code == http.StatusOK:
			want := image.Pt(512, 512)
			q := req.URL.Query()
			if v := q.Get("w"); v != "" {
				want.X, _ = strconv.Atoi(v)
			}
			if v := q.Get("h"); v != "" {
				want.Y, _ = strconv.Atoi(v)
			}
			img, err := png.Decode(rec.Body)
			if err != nil {
				t.Fatalf("200 whose body is not a PNG: %v", err)
			}
			if got := img.Bounds().Size(); got != want {
				t.Fatalf("tile is %v, asked for %v", got, want)
			}
			if _, err := strconv.Atoi(rec.Header().Get("X-Forestview-Level")); err != nil {
				t.Fatalf("X-Forestview-Level = %q", rec.Header().Get("X-Forestview-Level"))
			}
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	})
}

// FuzzShardFleetRequest throws arbitrary bodies at POST
// /api/shard/v1/admin/fleet, the one admin body a shard decodes: a holder of
// the fleet token must not be able to panic a shard or leave it between two
// membership views. Each execution boots shard-1 of a 3-shard R=1 fleet anew
// (so a finding replays from its input alone) over a loader that cannot read
// one dataset. Whatever the bytes: no panic and no 5xx; a 4xx — bad JSON, a
// bad list, the unreadable dataset — leaves the shard's state the very
// pointer it was; a 200 leaves indexes, local, raw and the engine describing
// one set of holdings that includes everything held before. The seed corpus
// in testdata/fuzz holds shrinking and growing lists, the shard's own view
// (a no-op), duplicates, empty strings, self absent, identities that
// normalize onto each other, negative and huge replication, wrong types and
// truncated JSON; the two 64 KiB lists, one just under the body limit and
// one over it, are seeded here, being too bulky to commit.
func FuzzShardFleetRequest(f *testing.F) {
	top := newDrainTopology(f, 3, 1)
	top.failLoad.Store(int64(len(top.dss) - 1))
	fleet := make([]string, 6000)
	for i := range fleet {
		fleet[i] = fmt.Sprintf("shard-%d", i)
	}
	for _, n := range []int{5000, len(fleet)} { // 63,920 bytes, and 76,920: over the 64 KiB a body may carry
		body, err := json.Marshal(shardFleetRequest{Shards: fleet[:n]})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		s := top.newShard(t, "shard-1")
		before := s.shardState()
		req := httptest.NewRequest(http.MethodPost, shard.ShardFleetPath, bytes.NewReader(body))
		req.Header.Set("X-Fleet-Token", drainToken)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		st := s.shardState()
		switch {
		case rec.Code >= 400 && rec.Code < 500:
			if st != before {
				t.Fatalf("a refused reload (%d) swapped the shard's state: %s", rec.Code, rec.Body.String())
			}
		case rec.Code == http.StatusOK:
			var view shardFleetState
			if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil || view.Held != len(st.indexes) {
				t.Fatalf("200 body %q (%v) for a shard holding %d", rec.Body.String(), err, len(st.indexes))
			}
			if len(st.local) != len(st.indexes) || len(st.raw) != len(st.indexes) || st.engine.NumDatasets() != len(st.indexes) {
				t.Fatalf("holdings disagree: %d indexes, %d local, %d raw, an engine over %d",
					len(st.indexes), len(st.local), len(st.raw), st.engine.NumDatasets())
			}
			for li, gi := range st.indexes {
				if st.local[gi] != li || st.raw[li] != top.dss[gi] {
					t.Fatalf("local index %d: global %d maps back to %d, raw is %q", li, gi, st.local[gi], st.raw[li].Name)
				}
			}
			for _, gi := range before.indexes {
				if _, ok := st.local[gi]; !ok {
					t.Fatalf("reload dropped dataset %d", gi)
				}
			}
			if st.repl < 1 || st.repl > len(st.shards) || st.gen != shard.Generation(st.shards) {
				t.Fatalf("view %v at replication %d, generation %016x", st.shards, st.repl, st.gen)
			}
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	})
}

// queryFuzzCodes are the envelope codes a query string alone can draw from
// /api/search and /api/enrich on a healthy single daemon.
var queryFuzzCodes = []string{codeMissingParameter, codeBadParameter, codeSingleGeneQuery, codeNoSelectionGenes, codeUnprocessable}

// fuzzQuery serves GET path?rawQuery on s and holds the answer to the
// contract FuzzSearchQuery and FuzzEnrichQuery share: no panic, no 5xx, a
// 4xx in the error envelope with a code the endpoint documents. It returns
// the parsed query and the body of a 200, nil for a refusal.
func fuzzQuery(t *testing.T, s *Server, path, rawQuery string) (url.Values, []byte) {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.URL.RawQuery = rawQuery // NewRequest would panic on bytes no request line can carry
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	switch {
	case rec.Code == http.StatusOK:
		return req.URL.Query(), rec.Body.Bytes()
	case rec.Code >= 400 && rec.Code < 500:
		code, msg := errorEnvelopeOf(t, rec.Body.Bytes())
		if !slices.Contains(queryFuzzCodes, code) {
			t.Fatalf("status %d with envelope code %q: %s", rec.Code, code, msg)
		}
		// A panic inside the computation is recovered by the flight group
		// and would otherwise pass for a query error.
		if strings.Contains(msg, "panicked") {
			t.Fatalf("request panicked the compute path: %s", msg)
		}
	default:
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	return nil, nil
}

// FuzzSearchQuery throws arbitrary query strings at /api/search on a single
// daemon, so q and top reach their validation and, when accepted, the SPELL
// kernel, the ranking and the JSON encoder. Whatever the bytes: no panic, no
// 5xx, a 4xx carries a documented envelope code, and a 200 decodes as a
// spell.Result for the canonical query, ranked, within the top cut. The seed
// corpus in testdata/fuzz holds the README's examples, every row of the
// bad-parameter tables, one-gene, duplicated and absent genes, and top at 0,
// 1, MaxGenes, beyond it and beyond an int.
func FuzzSearchQuery(f *testing.F) {
	s, _ := fixture(f)
	f.Fuzz(func(t *testing.T, rawQuery string) {
		q, body := fuzzQuery(t, s, "/api/search", rawQuery)
		if body == nil {
			return
		}
		var res spell.Result
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("200 whose body is not a search result: %v", err)
		}
		if want := spell.CanonicalQuery(spellweb.ParseQuery(q.Get("q"))); !slices.Equal(res.Query, want) || len(want) < 2 {
			t.Fatalf("answered for query %q, asked %q", res.Query, want)
		}
		limit := s.cfg.MaxGenes
		if top, err := strconv.Atoi(q.Get("top")); err == nil {
			limit = min(limit, top)
		}
		if len(res.Genes) > limit || len(res.Datasets) != fixEngine.NumDatasets() {
			t.Fatalf("%d genes over a cut of %d, %d datasets", len(res.Genes), limit, len(res.Datasets))
		}
		for i := 1; i < len(res.Genes); i++ {
			if a, b := res.Genes[i-1], res.Genes[i]; a.Score < b.Score || (a.Score == b.Score && a.ID >= b.ID) {
				t.Fatalf("rank %d: %s (%v) before %s (%v)", i, a.ID, a.Score, b.ID, b.Score)
			}
		}
	})
}

// FuzzEnrichQuery is FuzzSearchQuery for /api/enrich: genes, maxp and min
// reach their validation and, when accepted, the GOLEM kernel and the
// encoder. A 200 decodes as the enrichment body: every requested gene either
// tested or ignored, results in p-value order and under maxp. The seed corpus
// in testdata/fuzz holds the README's examples, the bad-parameter rows,
// one-gene, duplicated and absent selections, min at its edges, and maxp at
// NaN, ±0, 1, 1e-400, ±Inf and hex floats.
func FuzzEnrichQuery(f *testing.F) {
	s, _ := fixture(f)
	f.Fuzz(func(t *testing.T, rawQuery string) {
		q, body := fuzzQuery(t, s, "/api/enrich", rawQuery)
		if body == nil {
			return
		}
		var res enrichResponse
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("200 whose body is not an enrichment: %v", err)
		}
		sel := spell.CanonicalQuery(spellweb.ParseQuery(q.Get("genes")))
		if got := spell.CanonicalQuery(append(slices.Clone(res.Selection), res.Ignored...)); !slices.Equal(got, sel) || len(res.Selection) == 0 {
			t.Fatalf("tested %q and ignored %q of the selection %q", res.Selection, res.Ignored, sel)
		}
		maxp, _ := strconv.ParseFloat(q.Get("maxp"), 64)
		for i, r := range res.Results {
			if !(r.PValue >= 0 && r.PValue <= 1) || (maxp > 0 && r.PValue > maxp) || (i > 0 && r.PValue < res.Results[i-1].PValue) {
				t.Fatalf("result %d (%s): p = %v after %v, maxp %v", i, r.TermID, r.PValue, res.Results[max(i, 1)-1].PValue, maxp)
			}
		}
	})
}
