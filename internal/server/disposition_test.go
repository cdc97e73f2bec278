package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"forestview/internal/spell"
	"forestview/internal/tilecorr"
)

// These tests pin the X-Forestview-Cache response header: every /api/search,
// /api/enrich and /api/heatmap answer discloses whether it was served from
// the LRU (hit), computed for this request (miss) or joined another
// request's in-flight computation (coalesced), so load envelopes and curl
// users can attribute latency to the layer that produced it.

// holdFlight occupies the singleflight slot for key with a controlled
// computation, so an HTTP request for the same key deterministically joins
// it (disposition "coalesced"). waitJoin blocks until the endpoint's miss
// counter shows the request has entered the cache path, then releases the
// flight after a grace period for it to pile on.
func holdFlight(t *testing.T, g *flightGroup, key string, val any) (release func()) {
	t.Helper()
	ready := make(chan struct{})
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = g.Do(context.Background(), key, func(context.Context) (any, error) {
			close(ready)
			<-gate
			return val, nil
		})
	}()
	<-ready // the flight is open; joiners will coalesce onto it
	t.Cleanup(func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
		<-done
	})
	return func() { close(gate); <-done }
}

// waitMiss polls until the endpoint has recorded more cache misses than
// before, i.e. the in-flight HTTP request has passed the cache lookup and
// is at (or inside) the flight group.
func waitMiss(t *testing.T, ctr *atomic.Int64, before int64) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if ctr.Load() > before {
			// A short grace period: between the miss count and Do there are
			// only a few instructions, but they are not atomic with it.
			time.Sleep(20 * time.Millisecond)
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("request never reached the cache path")
}

func TestSearchCacheDispositionHeader(t *testing.T) {
	s, u := fixture(t)
	ids := u.ModuleGeneIDs(3)[:3]
	url := "/api/search?q=" + strings.Join(ids, ",") + "&top=10"

	rec := get(t, s, url)
	if rec.Code != http.StatusOK || rec.Header().Get(cacheHeader) != "miss" {
		t.Fatalf("cold search = %d, %s: %q", rec.Code, cacheHeader, rec.Header().Get(cacheHeader))
	}
	rec = get(t, s, url)
	if rec.Code != http.StatusOK || rec.Header().Get(cacheHeader) != "hit" {
		t.Fatalf("warm search = %d, %s: %q", rec.Code, cacheHeader, rec.Header().Get(cacheHeader))
	}

	// Coalesced: occupy the flight for a different query's exact cache key,
	// then let the HTTP request join it.
	ids2 := u.ModuleGeneIDs(4)[:3]
	canonical := spell.CanonicalQuery(ids2)
	key := fmt.Sprintf("scatter\x1f%016x\x1f%d\x1f%t\x1f%t\x1f%s", s.coord.Generation(), 10, true, false, joinIDs(canonical))
	release := holdFlight(t, &s.flights, key, answer{})
	before := s.statSearch.cacheMisses.Load()
	recCh := make(chan *http.Response, 1)
	go func() {
		rec := get(t, s, "/api/search?q="+strings.Join(ids2, ",")+"&top=10")
		recCh <- rec.Result()
	}()
	waitMiss(t, &s.statSearch.cacheMisses, before)
	release()
	resp := <-recCh
	if resp.StatusCode != http.StatusOK || resp.Header.Get(cacheHeader) != "coalesced" {
		t.Fatalf("coalesced search = %d, %s: %q", resp.StatusCode, cacheHeader, resp.Header.Get(cacheHeader))
	}
}

func TestEnrichCacheDispositionHeader(t *testing.T) {
	s, u := fixture(t)
	genes := u.ModuleGeneIDs(u.ESRInduced)
	url := "/api/enrich?genes=" + strings.Join(genes, ",")

	rec := get(t, s, url)
	if rec.Code != http.StatusOK || rec.Header().Get(cacheHeader) != "miss" {
		t.Fatalf("cold enrich = %d, %s: %q", rec.Code, cacheHeader, rec.Header().Get(cacheHeader))
	}
	rec = get(t, s, url)
	if rec.Code != http.StatusOK || rec.Header().Get(cacheHeader) != "hit" {
		t.Fatalf("warm enrich = %d, %s: %q", rec.Code, cacheHeader, rec.Header().Get(cacheHeader))
	}

	genes2 := u.ModuleGeneIDs(2)
	canonical := spell.CanonicalQuery(genes2)
	key := fmt.Sprintf("escatter\x1f%016x\x1f%d\x1f%g\x1f%s", s.coord.Generation(), 1, 0.0, joinIDs(canonical))
	release := holdFlight(t, &s.flights, key, answer{})
	before := s.statEnrich.cacheMisses.Load()
	recCh := make(chan *http.Response, 1)
	go func() {
		rec := get(t, s, "/api/enrich?genes="+strings.Join(genes2, ","))
		recCh <- rec.Result()
	}()
	waitMiss(t, &s.statEnrich.cacheMisses, before)
	release()
	resp := <-recCh
	if resp.StatusCode != http.StatusOK || resp.Header.Get(cacheHeader) != "coalesced" {
		t.Fatalf("coalesced enrich = %d, %s: %q", resp.StatusCode, cacheHeader, resp.Header.Get(cacheHeader))
	}
}

func TestHeatmapCacheDispositionHeader(t *testing.T) {
	s, _ := fixture(t)
	url := "/api/heatmap?dataset=0&w=64&h=64&rows=0:32"

	rec := get(t, s, url)
	if rec.Code != http.StatusOK || rec.Header().Get(cacheHeader) != "miss" {
		t.Fatalf("cold tile = %d, %s: %q", rec.Code, cacheHeader, rec.Header().Get(cacheHeader))
	}
	rec = get(t, s, url)
	if rec.Code != http.StatusOK || rec.Header().Get(cacheHeader) != "hit" {
		t.Fatalf("warm tile = %d, %s: %q", rec.Code, cacheHeader, rec.Header().Get(cacheHeader))
	}

	// Coalesced: hold the flight for a distinct tile's exact cache key. The
	// held value is any PNG-shaped byte slice — the handler only relays it.
	_, err := s.trees.get(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	p := tileParams{dsIndex: 0, from: 32, to: 64, w: 64, h: 64, cmap: 0, limit: 2}
	release := holdFlight(t, &s.flights, p.key(), append([]byte(nil), pngMagic...))
	before := s.statHeatmap.cacheMisses.Load()
	recCh := make(chan *http.Response, 1)
	go func() {
		rec := get(t, s, "/api/heatmap?dataset=0&w=64&h=64&rows=32:64")
		recCh <- rec.Result()
	}()
	waitMiss(t, &s.statHeatmap.cacheMisses, before)
	release()
	resp := <-recCh
	if resp.StatusCode != http.StatusOK || resp.Header.Get(cacheHeader) != "coalesced" {
		t.Fatalf("coalesced tile = %d, %s: %q", resp.StatusCode, cacheHeader, resp.Header.Get(cacheHeader))
	}
}

// TestCachedTileIsExactlySized: the LRU charges a tile its length
// (wireCost), so the slice it holds must not pin a larger backing array,
// as the bytes of a bytes.Buffer grown by doubling do (up to twice).
func TestCachedTileIsExactlySized(t *testing.T) {
	s, _ := fixture(t)
	url := "/api/heatmap?dataset=0&w=256&h=256&rows=0:150"
	get(t, s, url)
	if rec := get(t, s, url); rec.Code != http.StatusOK || rec.Header().Get(cacheHeader) != "hit" {
		t.Fatalf("warm tile = %d, %s: %q", rec.Code, cacheHeader, rec.Header().Get(cacheHeader))
	}
	_, err := s.trees.get(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	p := tileParams{dsIndex: 0, from: 0, to: 150, w: 256, h: 256, cmap: 0, limit: 2}
	v, ok := s.cache.Get(p.key())
	if !ok {
		t.Fatalf("no cache entry under the tile's key %q", p.key())
	}
	if b := v.([]byte); cap(b) != len(b) {
		t.Fatalf("cached tile holds cap %d for the %d bytes it is charged", cap(b), len(b))
	}
}

// TestTileCanvasReuseIsInvisible: a tile drawn on a recycled canvas —
// after a different tile of the same size, after one with strips, after
// one of another size — is byte for byte the tile drawn on a fresh one.
func TestTileCanvasReuseIsInvisible(t *testing.T) {
	s, _ := fixture(t)
	cd, err := s.trees.get(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	n := len(cd.DisplayOrder)
	tiles := []tileParams{
		{from: 0, to: 40, w: 96, h: 64},
		{from: 20, to: n, w: 96, h: 64, cmap: 1},
		{from: 0, to: n, w: 96, h: 64, treeW: 30},
		{from: 0, to: n, w: 64, h: 96, cmap: 2},
	}
	var fresh [][]byte
	for i := range tiles {
		tiles[i].dsIndex, tiles[i].limit = 0, 2
		// An emptied pool: every one of these draws on a new canvas.
		for tileCanvases.Get() != nil {
		}
		png, err := s.rasterizeTile(cd, tiles[i])
		if err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, png)
	}
	for round := 0; round < 3; round++ {
		for i, p := range tiles {
			png, err := s.rasterizeTile(cd, p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(png, fresh[i]) {
				t.Fatalf("round %d, tile %d: a recycled canvas changed the tile", round, i)
			}
		}
	}
}

// TestStatsServerSection pins the server section of /api/stats: uptime,
// role and Go version, so analyze output can be correlated with the
// topology that produced it.
func TestStatsServerSection(t *testing.T) {
	s, _ := fixture(t)
	var snap StatsSnapshot
	if err := json.Unmarshal(get(t, s, "/api/stats").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Server.Role != "single" {
		t.Fatalf("role = %q, want single", snap.Server.Role)
	}
	if snap.Server.GoVersion != runtime.Version() {
		t.Fatalf("go_version = %q, want %q", snap.Server.GoVersion, runtime.Version())
	}
	if snap.Server.UptimeSeconds < 0 {
		t.Fatalf("uptime = %v", snap.Server.UptimeSeconds)
	}

	// The JSON shape itself: a "server" object with exactly these keys.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(get(t, s, "/api/stats").Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	var sec map[string]json.RawMessage
	if err := json.Unmarshal(raw["server"], &sec); err != nil {
		t.Fatalf("server section: %v", err)
	}
	if snap.Server.SpellKernel != tilecorr.KernelName() {
		t.Fatalf("spell_kernel = %q, want %q", snap.Server.SpellKernel, tilecorr.KernelName())
	}
	for _, k := range []string{"uptime_seconds", "role", "go_version", "spell_kernel"} {
		if _, ok := sec[k]; !ok {
			t.Fatalf("server section missing %q: %s", k, raw["server"])
		}
	}

	// Shard and coordinator roles report themselves.
	sh, _ := fixtureShard(t)
	if err := json.Unmarshal(get(t, sh, "/api/stats").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Server.Role != "shard" {
		t.Fatalf("shard role = %q", snap.Server.Role)
	}
}
