package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"forestview/internal/shard"
)

// These tests pin the daemon's one cancellation rule (writeContextError)
// on every compute endpoint: the request's own hangup is a 499 with no
// body and starts nothing; another request's hangup never reaches a live
// one, because a flight lives as long as anyone waits for it.

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

// stall parks the first search or enrichment to reach it after hold until
// released, unless that computation's context ends first: a computation
// held in progress, on whichever member path it runs.
type stall struct {
	armed   atomic.Bool
	release chan struct{}
}

func newStall() *stall { return &stall{release: make(chan struct{})} }

// hold arms the stall and returns its release.
func (st *stall) hold() (release func()) {
	st.armed.Store(true)
	return sync.OnceFunc(func() { close(st.release) })
}

func (st *stall) wait(ctx context.Context) error {
	if !st.armed.CompareAndSwap(true, false) {
		return nil
	}
	select {
	case <-st.release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// stalledBackend is a daemon's own member behind a stall.
type stalledBackend struct {
	shard.Backend
	st *stall
}

func (b stalledBackend) Search(ctx context.Context, id string, req *shard.SearchRequest) (*shard.SearchAnswer, error) {
	if err := b.st.wait(ctx); err != nil {
		return nil, err
	}
	return b.Backend.Search(ctx, id, req)
}

func (b stalledBackend) Enrich(ctx context.Context, id string, req *shard.EnrichRequest) (*shard.EnrichAnswer, error) {
	if err := b.st.wait(ctx); err != nil {
		return nil, err
	}
	return b.Backend.Enrich(ctx, id, req)
}

// stalledTransport is a coordinator's road to its shards behind a stall.
type stalledTransport struct{ st *stall }

func (tr stalledTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == shard.SearchPath || req.URL.Path == shard.EnrichPath {
		if err := tr.st.wait(req.Context()); err != nil {
			return nil, err
		}
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestCancellationContract drives every compute endpoint through the same
// three steps. The shard role keeps nothing and joins no flight: its step 2
// cannot happen, and its steps 1 and 3 are that a hangup leaves nothing
// behind and the next request is answered.
func TestCancellationContract(t *testing.T) {
	// Each build returns a fresh server, a maker of one fixed request, and
	// hold, which keeps the next computation of that request in progress
	// until release.
	type build func(t *testing.T) (s *Server, request func() *http.Request, hold func() (release func()))
	single := func(path string) build {
		return func(t *testing.T) (*Server, func() *http.Request, func() func()) {
			s, u := fixture(t)
			st := newStall()
			var err error
			if s.coord, err = shard.NewCoordinator(shard.Config{Shards: []string{localMember}, Backend: stalledBackend{local{s}, st}}); err != nil {
				t.Fatal(err)
			}
			url := path + strings.Join(u.ModuleGeneIDs(2)[:4], ",")
			return s, func() *http.Request { return httptest.NewRequest(http.MethodGet, url, nil) }, st.hold
		}
	}
	shardRole := func(path string, body func(genes []string) any) build {
		return func(t *testing.T) (*Server, func() *http.Request, func() func()) {
			s, u := fixtureShard(t)
			body := shardBody(t, body(u.ModuleGeneIDs(2)[:4]))
			return s, func() *http.Request {
				return httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			}, nil
		}
	}
	cases := []struct {
		name         string
		stat         func(*Server) *endpointStats
		build        build
		keepsNothing bool // a shard-role endpoint: no cache, no flights
	}{
		{"search", func(s *Server) *endpointStats { return &s.statSearch }, single("/api/search?q="), false},
		{"search-coordinator", func(s *Server) *endpointStats { return &s.statSearch }, func(t *testing.T) (*Server, func() *http.Request, func() func()) {
			st := newStall()
			top := newShardTopology(t, 2, shard.Config{Deadline: time.Second, Client: &http.Client{Transport: stalledTransport{st}}})
			return top.coord, func() *http.Request { return httptest.NewRequest(http.MethodGet, searchURL(top.query), nil) }, st.hold
		}, false},
		{"enrich", func(s *Server) *endpointStats { return &s.statEnrich }, single("/api/enrich?genes="), false},
		{"heatmap", func(s *Server) *endpointStats { return &s.statHeatmap }, func(t *testing.T) (*Server, func() *http.Request, func() func()) {
			s, _ := fixture(t)
			return s, func() *http.Request {
				return httptest.NewRequest(http.MethodGet, "/api/heatmap?dataset=0&w=32&h=32", nil)
			}, func() func() { return holdSlots(t, s.pool, cap(s.pool.slots)) }
		}, false},
		{"shard-search", func(s *Server) *endpointStats { return &s.statShard }, shardRole(shard.SearchPath, func(genes []string) any {
			return shard.SearchRequest{Query: genes}
		}), true},
		{"shard-enrich", func(s *Server) *endpointStats { return &s.statShard }, shardRole(shard.EnrichPath, func(genes []string) any {
			return shard.EnrichRequest{Selection: genes}
		}), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, request, hold := tc.build(t)
			ep := tc.stat(s)
			// 1. Own hangup: 499, no body, nothing cached; a request that
			// would lead a flight starts none.
			rec := serve(s, canceled(request()))
			if rec.Code != statusClientClosedRequest || rec.Body.Len() != 0 {
				t.Fatalf("own hangup = %d with %d body bytes, want %d and none", rec.Code, rec.Body.Len(), statusClientClosedRequest)
			}
			if n := s.cache.Len(); n != 0 {
				t.Fatalf("own hangup cached %d entries", n)
			}
			if tc.keepsNothing {
				// 3. The next clean request is answered, and kept no more than
				// the aborted one.
				if rec = serve(s, request()); rec.Code != http.StatusOK || s.cache.Len() != 0 {
					t.Fatalf("clean request = %d, %d entries cached: %s", rec.Code, s.cache.Len(), rec.Body.String())
				}
				return
			}

			if n := ep.computed.Load(); n != 0 {
				t.Fatalf("own hangup computed %d times", n)
			}

			// 2. A live joiner of a flight whose first caller hung up: one
			// computation answers it, and nothing is shed.
			release := hold()
			misses := ep.cacheMisses.Load()
			ctx, hangUp := context.WithCancel(context.Background())
			first := make(chan int, 1)
			go func() { first <- serve(s, request().WithContext(ctx)).Code }()
			waitMiss(t, &ep.cacheMisses, misses) // the first caller leads the flight
			joiner := make(chan *httptest.ResponseRecorder, 1)
			go func() { joiner <- serve(s, request()) }()
			waitMiss(t, &ep.cacheMisses, misses+1) // the joiner is at the flight
			hangUp()
			time.Sleep(20 * time.Millisecond) // the hangup reaches whatever it reaches
			release()
			rec = <-joiner
			if rec.Code != http.StatusOK || rec.Header().Get(cacheHeader) != dispCoalesced {
				t.Fatalf("live joiner = %d (%s: %q): %s", rec.Code, cacheHeader, rec.Header().Get(cacheHeader), rec.Body.String())
			}
			if code := <-first; code != http.StatusOK && code != statusClientClosedRequest {
				t.Fatalf("the caller that hung up = %d", code)
			}
			if n := ep.computed.Load(); n != 1 {
				t.Fatalf("computed %d times, want once", n)
			}
			if n := ep.rejected.Load(); n != 0 {
				t.Fatalf("rejected = %d, want 0", n)
			}

			// 3. The flight's answer was kept: the next request is a hit.
			rec = serve(s, request())
			if rec.Code != http.StatusOK || rec.Header().Get(cacheHeader) != dispHit {
				t.Fatalf("next request = %d (%s: %q): %s", rec.Code, cacheHeader, rec.Header().Get(cacheHeader), rec.Body.String())
			}
		})
	}
}
