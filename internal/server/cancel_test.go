package server

import (
	"bytes"
	"context"
	"encoding/gob"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"forestview/internal/shard"
)

// These tests pin the daemon's one cancellation rule (writeContextError)
// on every compute endpoint: the request's own hangup is a 499 with no
// body; a context error that leaked from other requests' flights is a
// counted, retryable 503 "interrupted"; neither caches anything.

// serve runs one request through the server.
func serve(s *Server, req *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// canceled returns req bound to an already-canceled context: its client
// is gone before the handler starts.
func canceled(req *http.Request) *http.Request {
	ctx, cancel := context.WithCancel(req.Context())
	cancel()
	return req.WithContext(ctx)
}

// TestSearchClientCancel: a search whose client already hung up must not
// pay for the scan or answer 200 — the engine stops on the dead context,
// the abort is a 499, and nothing is cached (the single role used to run
// the whole scan without the request context).
func TestSearchClientCancel(t *testing.T) {
	s, u := fixture(t)
	url := "/api/search?q=" + strings.Join(u.ModuleGeneIDs(2)[:4], ",")
	rec := serve(s, canceled(httptest.NewRequest(http.MethodGet, url, nil)))
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("status = %d, want %d", rec.Code, statusClientClosedRequest)
	}
	if n := s.cache.Len(); n != 0 {
		t.Fatalf("aborted search cached %d entries", n)
	}
	// No scan completed on the dead client's behalf: a live client computes
	// fresh.
	if rec := get(t, s, url); rec.Code != http.StatusOK || rec.Header().Get(cacheHeader) != dispMiss {
		t.Fatalf("live retry = %d (%s: %q)", rec.Code, cacheHeader, rec.Header().Get(cacheHeader))
	}
}

// cachedKeys lists every key resident in the cache.
func cachedKeys(c *Cache) []string {
	var keys []string
	c.each(func(sh *cacheShard) {
		for k := range sh.items {
			keys = append(keys, k)
		}
	})
	return keys
}

// poisonFlights parks, under each key, a finished flight that died of its
// leader's hangup: every request that joins it — on every retry — gets the
// leader's context.Canceled, exactly what a follower sees when the flights
// it coalesces onto keep losing their leaders. clear removes them.
func poisonFlights(g *flightGroup, keys []string) (clear func()) {
	finished := make(chan struct{})
	close(finished)
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*flightCall)
	}
	for _, k := range keys {
		g.calls[k] = &flightCall{done: finished, err: context.Canceled}
	}
	g.mu.Unlock()
	return func() {
		g.mu.Lock()
		for _, k := range keys {
			delete(g.calls, k)
		}
		g.mu.Unlock()
	}
}

// TestCancellationContract drives every compute endpoint through the same
// three steps. The cache keys to poison are learned from a twin server
// answering the same request, so the test does not restate key formats. The
// shard role keeps nothing and joins no flight: its step 2 cannot happen, and
// its steps 1 and 3 are that a hangup leaves nothing behind and the next
// request is answered.
func TestCancellationContract(t *testing.T) {
	// Each build returns a fresh server and a maker of one fixed request.
	type build func(t *testing.T) (*Server, func() *http.Request)
	single := func(path string) build {
		return func(t *testing.T) (*Server, func() *http.Request) {
			s, u := fixture(t)
			url := path + strings.Join(u.ModuleGeneIDs(2)[:4], ",")
			return s, func() *http.Request { return httptest.NewRequest(http.MethodGet, url, nil) }
		}
	}
	shardRole := func(path string, body func(genes []string) any) build {
		return func(t *testing.T) (*Server, func() *http.Request) {
			s, u := fixtureShard(t)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(body(u.ModuleGeneIDs(2)[:4])); err != nil {
				t.Fatal(err)
			}
			return s, func() *http.Request {
				return httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf.Bytes()))
			}
		}
	}
	cases := []struct {
		name         string
		endpoint     string // the /api/stats endpoint whose rejected counter moves
		build        build
		keepsNothing bool // a shard-role endpoint: no cache, no flights
	}{
		{"search", "search", single("/api/search?q="), false},
		{"search-coordinator", "search", func(t *testing.T) (*Server, func() *http.Request) {
			top := newShardTopology(t, 2, shard.Config{Deadline: time.Second})
			return top.coord, func() *http.Request { return httptest.NewRequest(http.MethodGet, searchURL(top.query), nil) }
		}, false},
		{"enrich", "enrich", single("/api/enrich?genes="), false},
		{"heatmap", "heatmap", func(t *testing.T) (*Server, func() *http.Request) {
			s, _ := fixture(t)
			return s, func() *http.Request {
				return httptest.NewRequest(http.MethodGet, "/api/heatmap?dataset=0&w=32&h=32", nil)
			}
		}, false},
		{"shard-search", "shard", shardRole(shard.SearchPath, func(genes []string) any {
			return shard.SearchRequest{Query: genes}
		}), true},
		{"shard-enrich", "shard", shardRole(shard.EnrichPath, func(genes []string) any {
			return shard.EnrichRequest{Selection: genes}
		}), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, request := tc.build(t)
			// 1. Own hangup: 499, no body, nothing cached.
			rec := serve(s, canceled(request()))
			if rec.Code != statusClientClosedRequest || rec.Body.Len() != 0 {
				t.Fatalf("own hangup = %d with %d body bytes, want %d and none", rec.Code, rec.Body.Len(), statusClientClosedRequest)
			}
			if tc.keepsNothing {
				// 3. The next clean request is answered, and kept no more than
				// the aborted one.
				if rec = serve(s, request()); rec.Code != http.StatusOK || s.cache.Len() != 0 {
					t.Fatalf("clean request = %d, %d entries cached: %s", rec.Code, s.cache.Len(), rec.Body.String())
				}
				return
			}

			twin, twinRequest := tc.build(t)
			if rec := serve(twin, twinRequest()); rec.Code != http.StatusOK {
				t.Fatalf("twin = %d: %s", rec.Code, rec.Body.String())
			}
			keys := cachedKeys(twin.cache)
			if len(keys) == 0 {
				t.Fatal("the request cached nothing on the twin")
			}

			// 2. Live client, every joined flight died of its leader's hangup:
			// retries exhausted, shed as a counted 503.
			before := statsOf(t, s, tc.endpoint)
			clear := poisonFlights(&s.flights, keys)
			rec = serve(s, request())
			clear()
			if rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("poisoned flights = %d: %s", rec.Code, rec.Body.String())
			}
			if code, _ := errorEnvelopeOf(t, rec.Body.Bytes()); code != codeInterrupted {
				t.Fatalf("error code = %q, want %q", code, codeInterrupted)
			}
			after := statsOf(t, s, tc.endpoint)
			if got := after.Rejected - before.Rejected; got != 1 {
				t.Fatalf("rejected moved by %d, want 1", got)
			}
			if got := after.Coalesced - before.Coalesced; got != 3 {
				t.Fatalf("joined %d flights before giving up, want 3", got)
			}
			if n := s.cache.Len(); n != 0 {
				t.Fatalf("%d entries cached by aborted requests", n)
			}

			// 3. The next clean request computes fresh.
			rec = serve(s, request())
			if rec.Code != http.StatusOK || rec.Header().Get(cacheHeader) != dispMiss {
				t.Fatalf("clean request = %d (%s: %q): %s", rec.Code, cacheHeader, rec.Header().Get(cacheHeader), rec.Body.String())
			}
		})
	}
}
