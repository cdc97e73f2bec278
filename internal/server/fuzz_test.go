package server

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"image"
	"image/png"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"forestview/internal/shard"
	"forestview/internal/spell"
)

// FuzzShardPartialRequest throws arbitrary bodies at the one decode-and-
// serve path behind /api/shard/v1/{search,enrich} (serveShardPartial): a
// hostile or version-skewed peer must not be able to panic a shard or
// balloon its answer. Whatever the bytes, the shard answers 200 or a 4xx —
// the only 5xx is the counted encode failure — and the response stays
// small. The seed corpus in testdata/fuzz holds valid gob requests for both
// endpoints over this fixture's catalog: ownerless, a real ownership group
// of a 3-shard R=2 fleet, an owner tuple the catalog never derives,
// replication 0 and beyond the fleet, an empty fleet, and a truncated
// body. The 10k-member fleet is seeded here, being too bulky to commit.
func FuzzShardPartialRequest(f *testing.F) {
	s, u := fixtureShard(f)
	genes := u.ModuleGeneIDs(2)[:4]
	big := make([]string, 10000)
	for i := range big {
		big[i] = fmt.Sprintf("shard-%d", i)
	}
	var sb, eb bytes.Buffer
	if err := gob.NewEncoder(&sb).Encode(shard.SearchRequest{Query: genes, Shards: big, Replication: 2, Owners: big[:2]}); err != nil {
		f.Fatal(err)
	}
	if err := gob.NewEncoder(&eb).Encode(shard.EnrichRequest{Selection: genes, Shards: big, Replication: 2, Owners: big[:2]}); err != nil {
		f.Fatal(err)
	}
	f.Add(false, sb.Bytes())
	f.Add(true, eb.Bytes())
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
		// A partial is bounded by the shard's own compendium, never by the
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
