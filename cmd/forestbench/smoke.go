package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"

	"forestview/internal/cluster"
	"forestview/internal/faultline"
	"forestview/internal/fleettest"
	"forestview/internal/golem"
	"forestview/internal/microarray"
	"forestview/internal/server"
	"forestview/internal/shard"
	"forestview/internal/spell"
	"forestview/internal/synth"
	"forestview/internal/workload"
)

// fleetAdminToken arms every fleet topology's admin surface — the
// coordinator's /api/admin/fleet and the shards' drain and fleet
// endpoints — so drain and chaos harnesses can drive rolling restarts.
const fleetAdminToken = "bench-fleet-token"

// This file builds the in-process topologies behind every gate: real
// server.Server instances behind httptest listeners, so CI can push a
// seconds-scale open-loop load through the exact fleet wiring — including
// a coordinator scattering over replicated shard daemons — without sockets
// to provision or processes to babysit. The E2E tests reuse these builders.

// smokeUniverse are the demo-compendium parameters every smoke topology
// shares; kept small so a full smoke run stays seconds-scale.
const (
	smokeGenes    = 300
	smokeModules  = 10
	smokeSeed     = 1
	smokeDatasets = 4 // single-role compendium; fleet topologies pick their own depth
)

// topology is one in-process deployment under test.
type topology struct {
	name string
	// url is the load target (the only listener in single mode, the
	// coordinator in fleet mode).
	url string
	// genes is the queryable universe, paneRows the per-dataset heatmap
	// row counts (nil when the target serves no heatmaps).
	genes    []string
	paneRows []int
	// mix is a workload mix every endpoint of which the target actually
	// serves (a coordinator scatters search and enrich but has no heatmap).
	mix workload.Mix
	// srv is the daemon in single mode (nil for fleets), exposed so the
	// panwalk profile can pre-warm its clustered trees.
	srv *server.Server
	// fleet is the shard fleet behind the coordinator (nil in single mode),
	// exposed so fleet tests can kill, drain and restart its members.
	fleet *fleettest.Fleet[*server.Server]
	// u is the fleet's universe, for tests that query a planted module.
	u *synth.Universe
	// faults is the injector wrapped around the coordinator's scatter
	// client (chaos only); drive reports its counters.
	faults *faultline.Injector

	closers []func()
}

func (tp *topology) close() {
	for i := len(tp.closers) - 1; i >= 0; i-- {
		tp.closers[i]()
	}
}

func smokeCompendium(nDatasets int) (*synth.Universe, []*microarray.Dataset) {
	u := synth.NewUniverse(smokeGenes, smokeModules, smokeSeed)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: nDatasets, MinExperiments: 8, MaxExperiments: 14,
		ActiveFraction: 0.5, Noise: 0.3, MissingRate: 0.02, Seed: smokeSeed + 50,
	})
	return u, dss
}

// smokeEnricher builds the synthetic-ontology GOLEM enricher over a smoke
// universe. Every shard of a fleet shares it, as a real fleet shares one OBO
// and one association file, so the coordinator can merge their slice
// tallies exactly.
func smokeEnricher(u *synth.Universe) (*golem.Enricher, error) {
	onto, ann, err := u.Ontology(smokeSeed + 3)
	if err != nil {
		return nil, err
	}
	enricher, err := golem.NewEnricher(onto, ann, u.GeneIDs())
	if err != nil {
		return nil, fmt.Errorf("enricher: %w", err)
	}
	return enricher, nil
}

// newSingleTopology builds a single-role daemon: SPELL + GOLEM + heatmap
// panes in one process, every endpoint live, generous render pool so the
// smoke gate measures the server rather than deliberate load shedding.
// prefetchWorkers arms the speculative tile prefetcher (0 = off), which
// the panwalk profile compares across.
func newSingleTopology(prefetchWorkers int) (*topology, error) {
	u, dss := smokeCompendium(smokeDatasets)
	engine, err := spell.NewEngine(dss)
	if err != nil {
		return nil, err
	}
	enricher, err := smokeEnricher(u)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Engine:          engine,
		Enricher:        enricher,
		RawDatasets:     dss,
		TreeMetric:      cluster.PearsonDist,
		TreeLinkage:     cluster.AverageLinkage,
		CacheBytes:      32 << 20,
		RenderWorkers:   runtime.GOMAXPROCS(0),
		RenderQueue:     256,
		PrefetchWorkers: prefetchWorkers,
	})
	if err != nil {
		return nil, err
	}
	hs := httptest.NewServer(srv)
	tp := &topology{
		name:    "single",
		url:     hs.URL,
		srv:     srv,
		genes:   u.GeneIDs(),
		mix:     workload.Mix{Search: 5, Heatmap: 3, Enrich: 2, Stats: 1},
		closers: []func(){srv.Close, hs.Close},
	}
	for _, ds := range dss {
		tp.paneRows = append(tp.paneRows, ds.NumGenes())
	}
	return tp, nil
}

// newFleetTopology builds the general fleet: n shard-role daemons placed by
// fleettest over an nDatasets-deep compendium at replication repl, each with
// the synthetic ontology, a loader over the whole compendium and the drain
// plumbing armed under fleetAdminToken, and a coordinator over them.
// coordCacheBytes sizes the coordinator's merged-result cache: a kill test
// passes something tiny (16) so that every search re-scatters instead of
// replaying full merges cached before the kill. scatterClient, when non-nil,
// issues the coordinator's shard requests (chaos wraps it in faultline).
func newFleetTopology(name string, nShards, repl, nDatasets int, coordCacheBytes int64, scatterClient *http.Client) (*topology, error) {
	u, dss := smokeCompendium(nDatasets)
	enricher, err := smokeEnricher(u)
	if err != nil {
		return nil, err
	}
	load := func(_ context.Context, gi int) (*microarray.Dataset, error) {
		if gi < 0 || gi >= len(dss) {
			return nil, fmt.Errorf("dataset index %d outside the %d-dataset compendium", gi, len(dss))
		}
		return dss[gi], nil
	}
	fleet, err := fleettest.New(fleettest.Spec[*server.Server]{
		Datasets: dss, Shards: nShards, Replication: repl,
		Coordinator: shard.Config{Client: scatterClient},
		Boot: func(m fleettest.Member) (*server.Server, error) {
			return server.New(server.Config{
				Engine: m.Engine, Enricher: enricher,
				ShardIndexes: m.Owned, ShardDatasetIDs: m.Catalog,
				ShardSelf: m.ID, ShardFleet: m.Shards, ShardReplication: m.Replication,
				ShardLoader: load,
				FleetToken:  fleetAdminToken,
			})
		},
	})
	if err != nil {
		return nil, err
	}
	coord, err := server.New(server.Config{
		Scatter: fleet.Coordinator(), CacheBytes: coordCacheBytes, FleetToken: fleetAdminToken,
	})
	if err != nil {
		fleet.Close()
		return nil, err
	}
	chs := httptest.NewServer(coord)
	return &topology{
		name: name, url: chs.URL, fleet: fleet, u: u,
		genes:   u.GeneIDs(),
		mix:     workload.Mix{Search: 4, Enrich: 2, Stats: 1},
		closers: []func(){fleet.Close, coord.Close, chs.Close},
	}, nil
}

// newTopology builds a smoke topology by name. "shard2" is the unreplicated
// two-shard fleet: each of its 6 datasets lives on exactly one shard, so
// killing a shard must degrade. "shard4" is the replicated fleet: 4 shards
// holding 8 datasets at replication 2, so any single shard is redundant.
func newTopology(name string, coordCacheBytes int64) (*topology, error) {
	switch name {
	case "single":
		return newSingleTopology(0)
	case "shard2":
		return newFleetTopology(name, 2, 1, 6, coordCacheBytes, nil)
	case "shard4":
		return newFleetTopology(name, 4, 2, 8, coordCacheBytes, nil)
	default:
		return nil, fmt.Errorf("unknown topology %q (single, shard2 or shard4)", name)
	}
}
