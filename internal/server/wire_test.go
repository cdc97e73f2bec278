package server

import (
	"context"
	"testing"
	"time"

	"forestview/internal/fleettest"
	"forestview/internal/shard"
	"forestview/internal/spell"
	"forestview/internal/synth"
)

// wideFleet boots nShards shard-role daemons at replication repl over a
// compendium wide enough that every partial frame is over 64 KB, under a
// coordinator with the package's default HTTP client.
func wideFleet(t *testing.T, nShards, repl, nDatasets int) (*fleettest.Fleet[*Server], []string) {
	t.Helper()
	u := synth.NewUniverse(4400, 10, 91)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: nDatasets, MinExperiments: 6, MaxExperiments: 8,
		ActiveFraction: 0.5, Noise: 0.3, Seed: 92,
	})
	fleet, err := fleettest.New(fleettest.Spec[*Server]{
		Datasets: dss, Shards: nShards, Replication: repl,
		Coordinator: shard.Config{Deadline: 5 * time.Second},
		Boot: func(m fleettest.Member) (*Server, error) {
			return New(Config{Engine: m.Engine, ShardIndexes: m.Owned, ShardDatasetIDs: m.Catalog})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	return fleet, u.ModuleGeneIDs(3)[:4]
}

// TestScatterReusesShardConnections: serial scatters over partial bodies
// larger than anything a decoder reads ahead keep using the connections the
// first one opened. The response must be read to EOF before it is closed: an
// answer without a Content-Length is chunked, a decoder that stops at the end
// of its message stops before the terminal chunk, and closing there discards the connection — the handlers'
// Content-Length and the bounded drain in shard's call each fix that alone,
// and both are kept (one for peers that do not drain, one for bodies that do
// not say their length). And a scatter has one request open per shard,
// however many groups the shard serves, so one connection per shard is all
// serial scatters ever need.
func TestScatterReusesShardConnections(t *testing.T) {
	const scatters = 16
	for _, tc := range []struct {
		name                     string
		nShards, repl, nDatasets int
	}{
		// One owner per dataset: each shard serves exactly its own group.
		{"one-group-per-shard", 2, 1, 8},
		// Ordered owner pairs: a shard is a replica of half the groups, and
		// is sent the ones it was picked for in one request.
		{"several-groups-per-shard", 4, 2, 24},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fleet, query := wideFleet(t, tc.nShards, tc.repl, tc.nDatasets)
			coord := fleet.Coordinator()
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
			for si, m := range fleet.Members() {
				// A frame lists every gene of the shard's engine: once the
				// coordinator holds the gene columns and with the count columns
				// one value each, 16 bytes of accumulators a gene.
				if genes := m.Engine.NumGenes(); genes*16 <= 64<<10 {
					t.Fatalf("fixture: shard %d frames %d genes, want frames over 64 KB", si, genes)
				}
				// One connection for the scatters, and one more at most: the
				// catalog probe races every shard once per membership
				// generation and cancels the losers mid-flight, connection
				// included.
				if got := fleet.Conns(si); got > 2 {
					t.Errorf("shard %d accepted %d connections over %d serial scatters of %d groups, want at most 2",
						si, got, scatters, groups)
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
	fleet, query := wideFleet(t, 2, 1, 8)
	res, _, err := fleet.Coordinator().SearchCtx(context.Background(), query, spell.Options{MaxGenes: 20})
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
