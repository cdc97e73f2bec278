package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"forestview/internal/microarray"
	"forestview/internal/shard"
	"forestview/internal/spell"
	"forestview/internal/synth"
)

// TestCachedPartialBodiesAreExactSize: the LRU charges a cached partial its
// len, so the heap must not hold more than that — no encode-buffer growth
// slack behind either partial kind.
func TestCachedPartialBodiesAreExactSize(t *testing.T) {
	s, u := fixtureShard(t)
	ids := spell.CanonicalQuery(u.ModuleGeneIDs(2)[:4])
	sreq := &shard.SearchRequest{Query: ids}
	ereq := &shard.EnrichRequest{Selection: ids}
	for _, tc := range []struct {
		kind, key string
		compute   func() ([]byte, string, error)
	}{
		{"search", searchPartialKey(sreq, ids), func() ([]byte, string, error) { return s.partialSearch(context.Background(), ids, sreq) }},
		{"enrich", groupEnrichKey(ereq, ids), func() ([]byte, string, error) { return s.partialEnrich(context.Background(), ids, ereq) }},
	} {
		body, _, err := tc.compute()
		if err != nil {
			t.Fatalf("%s partial: %v", tc.kind, err)
		}
		cached, ok := s.cache.Get(tc.key)
		if !ok {
			t.Fatalf("%s partial not cached", tc.kind)
		}
		for what, b := range map[string][]byte{"served": body, "cached": cached.([]byte)} {
			if len(b) == 0 || cap(b) != len(b) {
				t.Errorf("%s %s partial body: len %d, cap %d", what, tc.kind, len(b), cap(b))
			}
		}
	}
}

// connCountingFleet boots nShards shard-role daemons at replication repl
// over a compendium wide enough that every group partial is over 64 KB,
// each behind a listener that counts the connections it accepts, and a
// coordinator with the package's default HTTP client.
func connCountingFleet(t *testing.T, nShards, repl, nDatasets int) (*shard.Coordinator, []*Server, []*atomic.Int64, []string) {
	t.Helper()
	u := synth.NewUniverse(1800, 10, 91)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: nDatasets, MinExperiments: 6, MaxExperiments: 8,
		ActiveFraction: 0.5, Noise: 0.3, Seed: 92,
	})
	names := make([]string, len(dss))
	for i, ds := range dss {
		names[i] = ds.Name
	}
	var ids []string
	for i := 0; i < nShards; i++ {
		ids = append(ids, fmt.Sprintf("shard-%d", i))
	}
	urls := make(map[string]string, nShards)
	conns := make([]*atomic.Int64, nShards)
	shards := make([]*Server, nShards)
	for si, self := range ids {
		owned := shard.OwnedIndexesR(names, ids, self, repl)
		if len(owned) == 0 {
			t.Fatalf("%s owns no dataset; pick another fixture seed", self)
		}
		var slice []*microarray.Dataset
		for _, gi := range owned {
			slice = append(slice, dss[gi])
		}
		engine, err := spell.NewEngine(slice)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := New(Config{Engine: engine, ShardIndexes: owned, ShardDatasetIDs: names, CacheBytes: 16 << 20})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ss.Close)
		shards[si] = ss
		n := new(atomic.Int64)
		conns[si] = n
		hs := httptest.NewUnstartedServer(ss)
		hs.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				n.Add(1)
			}
		}
		hs.Start()
		t.Cleanup(hs.Close)
		urls[self] = hs.URL
	}
	coord, err := shard.NewCoordinator(shard.Config{
		Shards: ids, Replication: repl, Deadline: 5 * time.Second,
		Resolve: func(id string) string { return urls[id] },
	})
	if err != nil {
		t.Fatal(err)
	}
	return coord, shards, conns, u.ModuleGeneIDs(3)[:4]
}

// TestScatterReusesShardConnections: serial scatters over partial bodies
// larger than anything a decoder reads ahead keep using the connections the
// first one opened. Two things make it so. The response must be read to EOF
// before it is closed: a partial without a Content-Length is chunked, gob
// stops before the terminal chunk, and closing there discards the
// connection — the handlers' Content-Length and the bounded drain in
// shard's call each fix that alone, and both are kept (one for peers that
// do not drain, one for bodies that do not say their length). And the idle
// pool must be as wide as the groups a shard serves at once, which
// net/http's default of 2 is not from three groups per shard up.
func TestScatterReusesShardConnections(t *testing.T) {
	const scatters = 16
	for _, tc := range []struct {
		name                     string
		nShards, repl, nDatasets int
		// perShard is how many requests one scatter can have open to one
		// shard at once. A shard may see one connection more: the catalog
		// probe races every shard once per membership generation and cancels
		// the losers mid-flight, connection included.
		perShard func(groups int) int64
	}{
		// One owner per dataset: each shard serves exactly its own group.
		{"one-group-per-shard", 2, 1, 8, func(int) int64 { return 1 }},
		// Ordered owner pairs: a shard is a replica of up to half the groups
		// and may be picked as the primary of each of them at once.
		{"several-groups-per-shard", 4, 2, 24, func(groups int) int64 { return int64(groups+1) / 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord, shards, conns, query := connCountingFleet(t, tc.nShards, tc.repl, tc.nDatasets)
			for i := 0; i < scatters; i++ {
				res, meta, err := coord.SearchCtx(context.Background(), query, spell.Options{MaxGenes: 20})
				if err != nil || meta.Degraded {
					t.Fatalf("scatter %d: %v, meta %+v", i, err, meta)
				}
				if i == 0 && len(res.Genes) != 20 {
					t.Fatalf("scatter returned %d genes", len(res.Genes))
				}
			}
			groups := coord.Stats().Groups
			if groups < tc.nShards {
				t.Fatalf("fixture: %d groups over %d shards", groups, tc.nShards)
			}
			for si, n := range conns {
				// Every partial lists every gene, so the mean body size is each one's.
				if p := shards[si].cache.Prefixes()["partial"]; p.Entries == 0 || p.Bytes/int64(p.Entries) <= 64<<10 {
					t.Fatalf("fixture: shard %d serves partials of %+v, want bodies over 64 KB", si, p)
				}
				if got, limit := n.Load(), tc.perShard(groups)+1; got > limit {
					t.Errorf("shard %d accepted %d connections over %d serial scatters of %d groups, want at most %d",
						si, got, scatters, groups, limit)
				}
			}
		})
	}
}

// TestMergedResultCostCoversItsStrings: searchCost is what the coordinator's
// LRU believes a merged result holds. Merge clones every string it returns
// (spell.TestMergeResultOwnsItsMemory), so the strings' own bytes are all
// there is — the cost must cover them, and they must be top-k small, not
// frame-blob large.
func TestMergedResultCostCoversItsStrings(t *testing.T) {
	coord, _, _, query := connCountingFleet(t, 2, 1, 8)
	res, _, err := coord.SearchCtx(context.Background(), query, spell.Options{MaxGenes: 20})
	if err != nil {
		t.Fatal(err)
	}
	held := 0
	for _, q := range res.Query {
		held += len(q)
	}
	for _, d := range res.Datasets {
		held += len(d.Name)
	}
	for _, g := range res.Genes {
		held += len(g.ID) + len(g.Name)
	}
	// 20 genes, 8 datasets, 4 query genes: well under 2 KB of text, where
	// one group's gene-ID blob alone is over 12 KB.
	if cost := searchCost(res); held == 0 || int64(held) > cost || cost > 4<<10 {
		t.Fatalf("merged top-20 holds %d string bytes at a charged cost of %d", held, cost)
	}
}
