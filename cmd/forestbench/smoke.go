package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"

	"forestview/internal/cluster"
	"forestview/internal/faultline"
	"forestview/internal/golem"
	"forestview/internal/microarray"
	"forestview/internal/ontology"
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
	// coordinator in shard2 mode).
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
	// shardServers are the shard backends, exposed so fleet tests can
	// kill one mid-run. Empty in single mode. Index-aligned with
	// identities and shardSrv; restartShard swaps entries in place.
	shardServers []*httptest.Server
	shardSrv     []*server.Server
	// identities are the fleet's rendezvous identities ("shard-0"...);
	// repl the replication factor; both empty/zero in single mode.
	identities []string
	repl       int
	// faults is the injector wrapped around the coordinator's scatter
	// client (chaos only); drive reports its counters.
	faults *faultline.Injector

	// The compendium behind every fleet member, kept so a restarted shard
	// can rebuild its slice (and a reload can load datasets it lacked).
	u     *synth.Universe
	dss   []*microarray.Dataset
	names []string

	// urls maps identity -> live base URL; guarded because restartShard
	// rewrites entries while the coordinator's Resolve hook reads them.
	mu   sync.Mutex
	urls map[string]string

	closers []func()
}

// resolve is the coordinator's identity->URL hook; it follows restarts.
func (tp *topology) resolve(id string) string {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return tp.urls[id]
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
// universe. Every shard of a fleet calls this with the same universe, so
// the enrichers share a background fingerprint and the coordinator can
// merge their slice tallies exactly.
func smokeEnricher(u *synth.Universe) (*golem.Enricher, error) {
	var leafNames []string
	for _, m := range u.Modules {
		leafNames = append(leafNames, m.Name)
	}
	onto, leafOf, err := ontology.Synthetic(ontology.SyntheticSpec{LeafNames: leafNames, Seed: smokeSeed + 3})
	if err != nil {
		return nil, fmt.Errorf("synthetic ontology: %w", err)
	}
	enricher, err := golem.NewEnricher(onto, ontology.AnnotateFromModules(u.Annotations(), leafOf), u.GeneIDs())
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

// newFleetTopology builds the general fleet: n shard-role daemons, each
// loading every dataset of an nDatasets-deep compendium that ranks it in
// the top-repl rendezvous owners, and a coordinator scattering /api/search
// over the fleet with that replication factor. Shard identities are the
// logical strings "shard-0".."shard-N" resolved to httptest URLs through
// the coordinator's Resolve hook — the same identity/dial split a real
// deployment gets from -shards plus DNS. Every shard carries the synthetic
// ontology, so the coordinator scatters enrichment as well as search; only
// heatmaps stay off the fleet mix. Every member boots with the drain
// plumbing armed under fleetAdminToken, so rolling-restart and chaos
// harnesses can drive reloads and drains over the wire.
// coordCacheBytes sizes the coordinator's merged-result cache — pass
// something tiny (e.g. 16) to force every search to re-scatter, which is
// what a shard-kill test needs: cached full merges would keep answering
// non-degraded after a shard died. scatterClient, when non-nil, issues the
// coordinator's shard requests — the chaos mode passes a faultline-wrapped
// client here.
func newFleetTopology(name string, nShards, repl, nDatasets int, coordCacheBytes int64, scatterClient *http.Client) (*topology, error) {
	u, dss := smokeCompendium(nDatasets)
	names := make([]string, len(dss))
	for i, ds := range dss {
		names[i] = ds.Name
	}
	identities := make([]string, nShards)
	for i := range identities {
		identities[i] = fmt.Sprintf("shard-%d", i)
	}
	tp := &topology{
		name: name, identities: identities, repl: repl,
		u: u, dss: dss, names: names,
		urls: make(map[string]string, nShards),
	}
	ok := false
	defer func() {
		if !ok {
			tp.close()
		}
	}()
	for _, self := range identities {
		if err := tp.bootShard(self); err != nil {
			return nil, err
		}
	}
	coordr, err := shard.NewCoordinator(shard.Config{
		Shards:      identities,
		Replication: repl,
		Retry:       true,
		Resolve:     tp.resolve,
		Client:      scatterClient,
	})
	if err != nil {
		return nil, err
	}
	coord, err := server.New(server.Config{
		Scatter: coordr, CacheBytes: coordCacheBytes, FleetToken: fleetAdminToken,
	})
	if err != nil {
		return nil, err
	}
	chs := httptest.NewServer(coord)
	tp.closers = append(tp.closers, coord.Close, chs.Close)
	tp.url = chs.URL
	tp.genes = u.GeneIDs()
	tp.mix = workload.Mix{Search: 4, Enrich: 2, Stats: 1}
	ok = true
	return tp, nil
}

// bootShard builds and starts one shard over its owned slice of the
// full-fleet view, wiring identity, membership, loader and admin token —
// used at boot and again by restartShard after a drain.
func (tp *topology) bootShard(self string) error {
	owned := shard.OwnedIndexesR(tp.names, tp.identities, self, tp.repl)
	if len(owned) == 0 {
		return fmt.Errorf("shard %s owns no datasets at this fixture seed", self)
	}
	var slice []*microarray.Dataset
	for _, gi := range owned {
		slice = append(slice, tp.dss[gi])
	}
	se, err := spell.NewEngine(slice)
	if err != nil {
		return err
	}
	enricher, err := smokeEnricher(tp.u)
	if err != nil {
		return err
	}
	ss, err := server.New(server.Config{
		Engine: se, Enricher: enricher,
		ShardIndexes: owned, ShardDatasetIDs: tp.names,
		ShardSelf: self, ShardFleet: tp.identities, ShardReplication: tp.repl,
		ShardRawDatasets: slice,
		ShardLoader: func(_ context.Context, gi int) (*microarray.Dataset, error) {
			if gi < 0 || gi >= len(tp.dss) {
				return nil, fmt.Errorf("dataset index %d outside the %d-dataset compendium", gi, len(tp.dss))
			}
			return tp.dss[gi], nil
		},
		FleetToken: fleetAdminToken,
	})
	if err != nil {
		return err
	}
	hs := httptest.NewServer(ss)
	tp.closers = append(tp.closers, ss.Close, hs.Close)
	idx := -1
	for i, id := range tp.identities {
		if id == self {
			idx = i
			break
		}
	}
	if idx < len(tp.shardServers) {
		tp.shardServers[idx], tp.shardSrv[idx] = hs, ss
	} else {
		tp.shardServers = append(tp.shardServers, hs)
		tp.shardSrv = append(tp.shardSrv, ss)
	}
	tp.mu.Lock()
	tp.urls[self] = hs.URL
	tp.mu.Unlock()
	return nil
}

// restartShard closes shard i's current instance and boots a fresh one at
// a new URL with full-fleet holdings — the "restart" half of a rolling
// restart. Double closes at teardown are harmless.
func (tp *topology) restartShard(i int) error {
	tp.shardSrv[i].Close()
	tp.shardServers[i].Close()
	return tp.bootShard(tp.identities[i])
}

// newShard2Topology is the unreplicated two-shard fleet: each of the 6
// datasets lives on exactly one shard, so killing a shard must degrade.
func newShard2Topology(coordCacheBytes int64) (*topology, error) {
	return newFleetTopology("shard2", 2, 1, 6, coordCacheBytes, nil)
}

// newShard4Topology is the replicated fleet: 4 shards holding an
// 8-dataset compendium at replication 2, so any single shard is
// redundant.
func newShard4Topology(coordCacheBytes int64) (*topology, error) {
	return newFleetTopology("shard4", 4, 2, 8, coordCacheBytes, nil)
}

func newTopology(name string, coordCacheBytes int64) (*topology, error) {
	switch name {
	case "single":
		return newSingleTopology(0)
	case "shard2":
		return newShard2Topology(coordCacheBytes)
	case "shard4":
		return newShard4Topology(coordCacheBytes)
	default:
		return nil, fmt.Errorf("unknown topology %q (single, shard2 or shard4)", name)
	}
}
