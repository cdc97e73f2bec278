package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"forestview/internal/cluster"
	"forestview/internal/golem"
	"forestview/internal/microarray"
	"forestview/internal/server"
	"forestview/internal/shard"
	"forestview/internal/spell"
)

// setupTimes splits one set-up by layer. total is what setup_s reports:
// PCL parse + engine build + enricher build + daemon wiring + (on tile
// workloads) clustering every pane and building its pyramid + listener
// boot. Generating the inputs happens before the clock starts.
type setupTimes struct {
	parse, engine, enricher, trees, pyramid, total time.Duration
}

// topology is one in-process deployment under test: real server.Server
// daemons behind loopback listeners, configured the way forestviewd's flag
// defaults configure them (render workers = GOMAXPROCS, queue 4x, 64 MiB
// cache, 2 prefetch workers).
type topology struct {
	url string // the load target: the daemon, or the fleet's coordinator
	// front is the daemon behind url; the traced pass calls its ServeHTTP
	// directly and the counters come from its Stats.
	front *server.Server
	// coord is the fleet's scatter engine (nil on one daemon), shardIDs its
	// rendezvous identities.
	coord    *shard.Coordinator
	shardIDs []string
	setup    setupTimes
	closers  []func()
}

func (tp *topology) close() {
	for i := len(tp.closers) - 1; i >= 0; i-- {
		tp.closers[i]()
	}
}

// daemonConfig carries the flag defaults every forestviewd role shares.
func daemonConfig(engine *spell.Engine, enricher *golem.Enricher, raw []*microarray.Dataset) server.Config {
	return server.Config{
		Engine:          engine,
		Enricher:        enricher,
		RawDatasets:     raw,
		TreeMetric:      cluster.PearsonDist,
		TreeLinkage:     cluster.AverageLinkage,
		CacheBytes:      cacheBytes,
		RenderWorkers:   runtime.GOMAXPROCS(0),
		PrefetchWorkers: prefetchers,
	}
}

func newTopology(ctx context.Context, fx *fixture, w *workload) (*topology, error) {
	if w.fleet {
		return newFleet(fx)
	}
	return newSingle(ctx, fx, w.panes)
}

// newSingle boots one single-role daemon over the whole compendium. With
// warm set it pays for the panes up front, as `forestviewd -precluster`
// does, and renders each pane's overview tile so the pyramid exists too.
func newSingle(ctx context.Context, fx *fixture, warm bool) (*topology, error) {
	tp := &topology{}
	t0 := time.Now()
	dss, err := fx.parse(fx.allIndexes())
	if err != nil {
		return nil, err
	}
	tp.setup.parse = time.Since(t0)

	t := time.Now()
	engine, err := spell.NewEngine(dss)
	if err != nil {
		return nil, err
	}
	tp.setup.engine = time.Since(t)

	t = time.Now()
	enricher, err := golem.NewEnricher(fx.onto, fx.ann, fx.geneIDs)
	if err != nil {
		return nil, err
	}
	tp.setup.enricher = time.Since(t)

	srv, err := server.New(daemonConfig(engine, enricher, dss[:fx.spec.panes]))
	if err != nil {
		return nil, err
	}
	tp.front = srv
	tp.closers = append(tp.closers, srv.Close)
	if warm {
		t = time.Now()
		if err := srv.WarmTrees(ctx); err != nil {
			tp.close()
			return nil, fmt.Errorf("warming trees: %w", err)
		}
		tp.setup.trees = time.Since(t)
		t = time.Now()
		for pane := 0; pane < fx.spec.panes; pane++ {
			o := tileOp(pane, 0, dss[pane].NumGenes())
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, o.path, nil))
			if rec.Code != http.StatusOK {
				tp.close()
				return nil, fmt.Errorf("overview tile of pane %d: status %d: %s", pane, rec.Code, rec.Body.String())
			}
		}
		tp.setup.pyramid = time.Since(t)
	}
	hs := httptest.NewServer(srv)
	tp.closers = append(tp.closers, hs.Close)
	tp.url = hs.URL
	tp.setup.total = time.Since(t0)
	return tp, nil
}

// newFleet boots the shard4 shape: fleetShards shard daemons, each parsing
// and indexing the datasets it ranks in the top-fleetRepl rendezvous
// owners of and carrying the ontology, plus a coordinator that holds no
// data. Identities are logical names resolved to loopback listeners, the
// identity/dial split a deployment gets from -shards plus DNS.
func newFleet(fx *fixture) (*topology, error) {
	tp := &topology{}
	ok := false
	defer func() {
		if !ok {
			tp.close()
		}
	}()
	t0 := time.Now()
	for i := 0; i < fleetShards; i++ {
		tp.shardIDs = append(tp.shardIDs, fmt.Sprintf("shard-%d", i))
	}
	urls := make(map[string]string, fleetShards)
	resolve := func(id string) string { return urls[id] }
	for _, self := range tp.shardIDs {
		owned := shard.OwnedIndexesR(fx.names, tp.shardIDs, self, fleetRepl)
		if len(owned) == 0 {
			return nil, fmt.Errorf("%s owns no dataset of the fixture", self)
		}
		t := time.Now()
		dss, err := fx.parse(owned)
		if err != nil {
			return nil, err
		}
		tp.setup.parse += time.Since(t)

		t = time.Now()
		engine, err := spell.NewEngine(dss)
		if err != nil {
			return nil, err
		}
		tp.setup.engine += time.Since(t)

		t = time.Now()
		enricher, err := golem.NewEnricher(fx.onto, fx.ann, fx.geneIDs)
		if err != nil {
			return nil, err
		}
		tp.setup.enricher += time.Since(t)

		cfg := daemonConfig(engine, enricher, dss)
		cfg.ShardIndexes = owned
		cfg.ShardDatasetIDs = fx.names
		cfg.ShardSelf = self
		cfg.ShardFleet = tp.shardIDs
		cfg.ShardReplication = fleetRepl
		cfg.ShardRawDatasets = dss
		cfg.ShardResolve = resolve
		ss, err := server.New(cfg)
		if err != nil {
			return nil, err
		}
		hs := httptest.NewServer(ss)
		tp.closers = append(tp.closers, ss.Close, hs.Close)
		urls[self] = hs.URL
	}
	// The coordinator's own connection pool, with net/http's default
	// settings, so one set-up's idle connections never leak into the next.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	coord, err := shard.NewCoordinator(shard.Config{
		Shards:      tp.shardIDs,
		Replication: fleetRepl,
		Deadline:    10 * time.Second,
		Retry:       true,
		Resolve:     resolve,
		Client:      &http.Client{Transport: transport},
	})
	if err != nil {
		return nil, err
	}
	front, err := server.New(server.Config{
		Scatter: coord, CacheBytes: cacheBytes, RenderWorkers: runtime.GOMAXPROCS(0),
	})
	if err != nil {
		return nil, err
	}
	hs := httptest.NewServer(front)
	tp.closers = append(tp.closers, transport.CloseIdleConnections, front.Close, hs.Close)
	tp.coord, tp.front, tp.url = coord, front, hs.URL
	tp.setup.total = time.Since(t0)
	ok = true
	return tp, nil
}
