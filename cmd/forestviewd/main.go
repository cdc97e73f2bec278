// Command forestviewd is the unified ForestView query daemon: it loads a
// compendium once, prepares every paper subsystem — the SPELL search
// engine, the GOLEM enrichment context and clustered heatmap panes — and
// serves them concurrently over HTTP behind a shared cache:
//
//	/            SPELL HTML search page (internal/spellweb)
//	/api/search  SPELL ranked datasets + genes (JSON)
//	/api/enrich  GOLEM GO-term enrichment of a gene list (JSON)
//	/api/heatmap clustered expression heatmap tiles (PNG)
//	/api/stats   per-endpoint latency / cache hit-rate counters (JSON)
//	/healthz     liveness probe
//
// The daemon also scales horizontally (DESIGN.md §4–§6): with -role=shard
// it serves SPELL partials for its rendezvous-assigned slice of the
// compendium at /api/shard/v1/search — and, when booted with an ontology,
// GOLEM slice tallies at /api/shard/v1/enrich — while -role=coordinator
// scatters every search AND enrichment over the -shards backends, merging
// search partials with global weight renormalization and enrichment
// tallies exactly (golem.MergeCounts), degrading gracefully when shards
// fail.
//
// Usage:
//
//	forestviewd -demo -addr :8080
//	forestviewd -files a.pcl,b.pcl,c.pcl -obo go.obo -assoc assoc.tsv
//	curl 'localhost:8080/api/search?q=YAL001C,YBR072W&top=10'
//	curl 'localhost:8080/api/enrich?genes=YAL001C,YAL002W&maxp=0.05'
//	curl 'localhost:8080/api/heatmap?dataset=0&w=512&h=512' -o tile.png
//
// A two-shard topology on one machine (see README for the walkthrough).
// Every daemon gets the SAME -shards list — the entries are the fleet's
// shard identities, hashed for dataset ownership by shards and
// coordinator alike, so they must match byte for byte:
//
//	forestviewd -demo -role=shard -shards 127.0.0.1:9001,127.0.0.1:9002 -self 127.0.0.1:9001 -addr 127.0.0.1:9001
//	forestviewd -demo -role=shard -shards 127.0.0.1:9001,127.0.0.1:9002 -self 127.0.0.1:9002 -addr 127.0.0.1:9002
//	forestviewd -role=coordinator -shards 127.0.0.1:9001,127.0.0.1:9002 -addr 127.0.0.1:8080
//
// With -replication=2 every dataset is held by its top-2 rendezvous
// shards and any single shard can die without degrading results; the
// coordinator's -fleet-token enables POST /api/admin/fleet for runtime
// joins and leaves (see DESIGN.md §5).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"forestview/internal/cluster"
	"forestview/internal/golem"
	"forestview/internal/microarray"
	"forestview/internal/ontology"
	"forestview/internal/server"
	"forestview/internal/shard"
	"forestview/internal/spell"
	"forestview/internal/synth"
	"forestview/internal/tilecorr"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		files      = flag.String("files", "", "comma-separated PCL files forming the compendium")
		oboPath    = flag.String("obo", "", "OBO ontology file enabling /api/enrich on file compendia")
		assocPath  = flag.String("assoc", "", "gene association file (gene<TAB>term), required with -obo")
		demo       = flag.Bool("demo", false, "serve a synthetic demo compendium (default when -files is empty)")
		precluster = flag.Bool("precluster", false, "cluster every dataset at startup instead of lazily on first heatmap request")
		genes      = flag.Int("genes", 1500, "demo universe size")
		modules    = flag.Int("modules", 20, "demo co-regulation modules")
		nDatasets  = flag.Int("datasets", 8, "demo compendium size")
		seed       = flag.Int64("seed", 1, "demo generator seed")
		cacheMB    = flag.Int64("cache-mb", 64, "shared LRU cache budget in MiB")
		workers    = flag.Int("render-workers", runtime.GOMAXPROCS(0), "render slots: tiles rendering at once (speculation takes idle slots only)")
		maxGenes   = flag.Int("max-genes", 200, "cap on requested search result length")
		maxTileDim = flag.Int("max-tile", 2048, "cap on requested tile width/height")
		clusterArr = flag.Bool("cluster-arrays", false, "also cluster experiment columns, enabling the atree= column-dendrogram strip")

		role         = flag.String("role", "single", `daemon role: "single" (whole compendium in-process), "shard" (serve partials for this daemon's slice), "coordinator" (scatter searches over -shards and merge)`)
		shardsFlag   = flag.String("shards", "", "comma-separated shard identities — the same list on every fleet member (shards and coordinator hash these strings for dataset ownership)")
		selfFlag     = flag.String("self", "", "this daemon's entry in -shards (required with -role=shard)")
		replication  = flag.Int("replication", 1, "ownership replication factor R: each dataset is held by its top-R rendezvous shards (same value on every fleet member)")
		fleetToken   = flag.String("fleet-token", "", "bearer token for fleet admin: the coordinator's POST /api/admin/fleet, and a shard's drain and fleet endpoints (empty disables them)")
		shardTimeout = flag.Duration("shard-timeout", 10*time.Second, "coordinator: per-shard attempt deadline")
		drain        = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown window for in-flight requests on SIGINT/SIGTERM")
	)
	flag.Parse()
	// The drain hook feeds the same signal channel the OS does: a drained
	// shard asks its own process to exit through the ordinary
	// graceful-shutdown path.
	sigCh := make(chan os.Signal, 2)
	srv, err := buildServer(buildConfig{
		files: *files, obo: *oboPath, assoc: *assocPath,
		demo: *demo, precluster: *precluster,
		genes: *genes, modules: *modules,
		datasets: *nDatasets, seed: *seed,
		cacheMB: *cacheMB, workers: *workers,
		maxGenes: *maxGenes, maxTileDim: *maxTileDim,
		clusterArrays: *clusterArr, role: *role,
		shards: splitList(*shardsFlag), self: *selfFlag,
		replication: *replication, fleetToken: *fleetToken,
		shardDeadline: *shardTimeout,
		onDrained: func() {
			select {
			case sigCh <- syscall.SIGTERM:
			default: // a real signal already queued; one exit is plenty
			}
		},
		log: func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "forestviewd:", err)
		os.Exit(1)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "forestviewd:", err)
		os.Exit(1)
	}
	fmt.Printf("forestviewd (%s, spell kernel %s) listening on http://%s\n", *role, tilecorr.KernelName(), ln.Addr())
	// Conservative connection timeouts: a client trickling bytes must not
	// pin goroutines forever past all the admission control downstream.
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	// SIGINT/SIGTERM drain instead of drop: in-flight work — a scatter
	// mid-merge, a tile mid-render — completes within -drain-timeout while
	// the listener stops accepting, so restarting a shard never turns
	// queries that already reached it into connection resets. The drain
	// admin endpoint exits through the same channel (see onDrained above).
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	if err := serveUntilSignal(hs, ln, sigCh, *drain,
		func(format string, args ...any) { fmt.Printf(format+"\n", args...) }); err != nil {
		fmt.Fprintln(os.Stderr, "forestviewd:", err)
		os.Exit(1)
	}
}

// serveUntilSignal serves on ln until a termination signal arrives, then
// shuts down gracefully: the listener closes immediately, in-flight
// requests get up to drain to complete, and only an incomplete drain is
// an error. Factored from main so tests can deliver simulated signals.
func serveUntilSignal(hs *http.Server, ln net.Listener, sig <-chan os.Signal, drain time.Duration, logf func(string, ...any)) error {
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err // the listener died on its own; nothing to drain
	case s := <-sig:
		logf("forestviewd: received %v, draining in-flight requests (up to %v)", s, drain)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return fmt.Errorf("graceful shutdown incomplete after %v: %w", drain, err)
		}
		if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		logf("forestviewd: drained, bye")
		return nil
	}
}

// prefetchWorkers is the speculative tile-render worker count. It needs no
// off switch: a pane whose requests stop following the predictions stops
// speculating by itself (internal/server/prefetch.go).
const prefetchWorkers = 2

// buildConfig collects everything buildServer needs, so tests can assemble
// a daemon without flags or sockets.
type buildConfig struct {
	files, obo, assoc        string
	demo                     bool
	precluster               bool
	genes, modules, datasets int
	seed                     int64
	cacheMB                  int64
	workers                  int
	maxGenes, maxTileDim     int
	clusterArrays            bool

	role          string // "", "single", "shard", "coordinator"
	shards        []string
	self          string
	replication   int
	fleetToken    string
	shardDeadline time.Duration
	// onDrained runs once when a shard-role daemon is drained (POST
	// /api/shard/v1/admin/drain); main uses it to trigger the
	// graceful-shutdown path.
	onDrained func()

	log func(format string, args ...any)
}

// buildServer loads the compendium (or, for a coordinator, only the shard
// topology), prepares the engines the role needs and wires the HTTP
// server. This is the whole startup path of the daemon.
func buildServer(cfg buildConfig) (*server.Server, error) {
	if cfg.log == nil {
		cfg.log = func(string, ...any) {}
	}
	role := cfg.role
	if role == "" {
		role = "single"
	}
	switch role {
	case "single", "shard", "coordinator":
	default:
		return nil, fmt.Errorf("unknown -role %q (single, shard or coordinator)", role)
	}
	repl := cfg.replication
	if repl == 0 {
		repl = 1
	}
	if repl < 1 {
		return nil, fmt.Errorf("-replication %d < 1", repl)
	}
	if role != "single" && len(cfg.shards) > 0 && repl > len(cfg.shards) {
		return nil, fmt.Errorf("-replication %d exceeds the %d-shard fleet", repl, len(cfg.shards))
	}
	if role == "coordinator" {
		// A coordinator holds no expression data and no ontology at all:
		// ownership is a pure function of the shard set, so it scatters and
		// merges — searches and enrichments alike — with nothing to load.
		if len(cfg.shards) == 0 {
			return nil, fmt.Errorf("-role=coordinator requires -shards")
		}
		if cfg.obo != "" {
			return nil, fmt.Errorf("-obo belongs on shard daemons, not the coordinator (it scatters /api/enrich to ontology-bearing shards)")
		}
		coord, err := shard.NewCoordinator(shard.Config{
			Shards:      cfg.shards,
			Replication: repl,
			Deadline:    cfg.shardDeadline,
		})
		if err != nil {
			return nil, err
		}
		srv, err := server.New(server.Config{
			Scatter:       coord,
			FleetToken:    cfg.fleetToken,
			CacheBytes:    cfg.cacheMB << 20,
			RenderWorkers: cfg.workers,
			MaxGenes:      cfg.maxGenes,
			MaxTileDim:    cfg.maxTileDim,
		})
		if err != nil {
			return nil, err
		}
		cfg.log("coordinator over %d shards (generation %016x), replication=%d fleet-admin=%t",
			len(cfg.shards), coord.Generation(), repl, cfg.fleetToken != "")
		return srv, nil
	}

	// The demo (the default without -files) brings its own compendium and
	// ontology, so a file it would not read is refused, not ignored.
	demo := cfg.demo || cfg.files == ""
	if demo && (cfg.files != "" || cfg.obo != "" || cfg.assoc != "") {
		return nil, fmt.Errorf("-demo serves a synthetic compendium and ontology: it takes no -files, -obo or -assoc")
	}

	// A compendium source is its dataset names, known before anything is
	// parsed, and a loader of one dataset by global index: the boot loads
	// what this daemon holds through it, and a shard's membership reload
	// loads what the shard newly owns through it too.
	var (
		names    []string
		load     func(gi int) (*microarray.Dataset, error)
		enricher *golem.Enricher
	)
	if demo {
		u := synth.NewUniverse(cfg.genes, cfg.modules, cfg.seed)
		dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
			NumDatasets: cfg.datasets, MinExperiments: 10, MaxExperiments: 30,
			ActiveFraction: 0.4, Noise: 0.25, MissingRate: 0.02, Seed: cfg.seed + 50,
		})
		names = make([]string, len(dss))
		for i, ds := range dss {
			names[i] = ds.Name
		}
		// The demo compendium is in memory whole; loading picks a dataset out.
		load = func(gi int) (*microarray.Dataset, error) {
			if gi < 0 || gi >= len(dss) {
				return nil, fmt.Errorf("dataset index %d outside the %d-dataset demo compendium", gi, len(dss))
			}
			return dss[gi], nil
		}
		onto, ann, err := u.Ontology(cfg.seed + 3)
		if err != nil {
			return nil, err
		}
		if enricher, err = golem.NewEnricher(onto, ann, u.GeneIDs()); err != nil {
			return nil, fmt.Errorf("enricher: %w", err)
		}
	} else {
		paths := splitList(cfg.files)
		if len(paths) == 0 {
			return nil, fmt.Errorf("no datasets given (use -files or -demo)")
		}
		// Dataset identity is the trimmed file name, known before parsing:
		// a shard only pays to parse the slice it owns.
		names = make([]string, len(paths))
		for i, p := range paths {
			names[i] = trimPCLExt(p)
		}
		load = func(gi int) (*microarray.Dataset, error) {
			if gi < 0 || gi >= len(paths) {
				return nil, fmt.Errorf("dataset index %d outside the %d-file compendium", gi, len(paths))
			}
			f, err := os.Open(paths[gi])
			if err != nil {
				return nil, err
			}
			defer f.Close()
			ds, err := microarray.ReadPCL(f, names[gi])
			if err != nil {
				return nil, fmt.Errorf("%s: %w", paths[gi], err)
			}
			cfg.log("loaded %q: %d genes x %d experiments", ds.Name, ds.NumGenes(), ds.NumExperiments())
			return ds, nil
		}
	}

	// A shard holds the datasets that rank it among their top-repl
	// rendezvous owners, so any repl-1 other shards can die without losing
	// a dataset; shardIndexes maps its engine's dataset positions to global
	// indexes. The single role holds everything, and shardIndexes stays nil.
	var shardIndexes []int
	if role == "shard" {
		if len(cfg.shards) == 0 || cfg.self == "" {
			return nil, fmt.Errorf("-role=shard requires -shards and -self")
		}
		if !slices.Contains(cfg.shards, cfg.self) {
			return nil, fmt.Errorf("-self %q is not in -shards (assignment hashes the literal strings)", cfg.self)
		}
		if err := shard.CheckPlacement(names, cfg.shards, repl); err != nil {
			return nil, err
		}
		shardIndexes = shard.OwnedIndexesR(names, cfg.shards, cfg.self, repl)
		if len(shardIndexes) == 0 {
			return nil, fmt.Errorf("shard %q owns none of the %d datasets; add datasets or shrink the shard set", cfg.self, len(names))
		}
	}
	held := shardIndexes
	if held == nil {
		held = make([]int, len(names))
		for i := range held {
			held[i] = i
		}
	}
	t0 := time.Now()
	var datasets []*microarray.Dataset
	for _, gi := range held {
		ds, err := load(gi)
		if err != nil {
			return nil, err
		}
		datasets = append(datasets, ds)
	}
	cfg.log("loaded %d datasets in %v", len(datasets), time.Since(t0).Round(time.Millisecond))
	if demo {
		cfg.log("demo compendium: %d of %d datasets over %d genes, %d GO terms",
			len(datasets), len(names), cfg.genes, enricher.NumTerms())
	}

	engine, err := spell.NewEngine(datasets)
	if err != nil {
		return nil, err
	}

	if enricher == nil && cfg.obo != "" {
		if cfg.assoc == "" {
			return nil, fmt.Errorf("-obo requires -assoc")
		}
		f, err := os.Open(cfg.obo)
		if err != nil {
			return nil, err
		}
		onto, err := ontology.ReadOBO(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.obo, err)
		}
		af, err := os.Open(cfg.assoc)
		if err != nil {
			return nil, err
		}
		ann, err := ontology.ReadAssociations(af)
		af.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.assoc, err)
		}
		enricher, err = golem.NewEnricher(onto, ann, engine.GeneIDs())
		if err != nil {
			return nil, fmt.Errorf("enricher: %w", err)
		}
		cfg.log("ontology: %d testable GO terms over %d background genes",
			enricher.NumTerms(), enricher.BackgroundSize())
	}

	// Datasets go in raw: the server's tree cache clusters each one exactly
	// once on its first /api/heatmap touch (concurrent tiles coalesce onto
	// one build), keeping startup off the clustering critical path. The
	// -precluster flag restores pay-at-boot warming.
	scfg := server.Config{
		Engine:          engine,
		ShardIndexes:    shardIndexes,
		Enricher:        enricher,
		RawDatasets:     datasets,
		TreeMetric:      cluster.PearsonDist,
		TreeLinkage:     cluster.AverageLinkage,
		CacheBytes:      cfg.cacheMB << 20,
		RenderWorkers:   cfg.workers,
		MaxGenes:        cfg.maxGenes,
		MaxTileDim:      cfg.maxTileDim,
		ClusterArrays:   cfg.clusterArrays,
		PrefetchWorkers: prefetchWorkers,
	}
	if role == "shard" {
		// Fleet plumbing: the shard knows its own identity and the full
		// membership view, can load datasets it newly owns after a reload,
		// and exits through onDrained once it is drained.
		scfg.ShardSelf = cfg.self
		scfg.ShardFleet = cfg.shards
		scfg.ShardReplication = repl
		scfg.ShardDatasetIDs = names
		scfg.ShardLoader = func(_ context.Context, gi int) (*microarray.Dataset, error) { return load(gi) }
		scfg.OnDrained = cfg.onDrained
		scfg.FleetToken = cfg.fleetToken
	}
	srv, err := server.New(scfg)
	if err != nil {
		return nil, err
	}
	if role == "shard" {
		cfg.log("shard %q serving %d/%d datasets (replication=%d) at %s, drain-admin=%t",
			cfg.self, len(datasets), len(names), repl, shard.SearchPath, cfg.fleetToken != "")
	}
	if cfg.precluster {
		t0 := time.Now()
		if err := srv.WarmTrees(context.Background()); err != nil {
			srv.Close()
			return nil, fmt.Errorf("preclustering: %w", err)
		}
		cfg.log("preclustered %d datasets in %v", len(datasets), time.Since(t0).Round(time.Millisecond))
	} else {
		cfg.log("%d datasets registered for lazy clustering (use -precluster to warm at boot)", len(datasets))
	}
	return srv, nil
}

// splitList splits a comma-separated flag, trimming blanks.
func splitList(v string) []string {
	var out []string
	for _, s := range strings.Split(v, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

func trimPCLExt(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		p = p[i+1:]
	}
	p = strings.TrimSuffix(p, ".pcl")
	return strings.TrimSuffix(p, ".PCL")
}
