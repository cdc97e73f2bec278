package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"forestview/internal/microarray"
	"forestview/internal/server"
	"forestview/internal/shard"
	"forestview/internal/synth"
)

func demoServer(t *testing.T) *server.Server {
	t.Helper()
	srv, err := buildServer(buildConfig{
		demo: true, genes: 200, modules: 8, datasets: 3, seed: 7,
		cacheMB: 8, workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, srv *server.Server, url string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec
}

// TestDemoDaemonServesAllSubsystems is the end-to-end smoke test of the
// acceptance criterion: one daemon, one engine, all three paper subsystems
// answering on their endpoints.
func TestDemoDaemonServesAllSubsystems(t *testing.T) {
	srv := demoServer(t)

	if rec := get(t, srv, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}

	// A module's genes make a meaningful query for both search and
	// enrichment; regenerate the same universe to learn its gene IDs.
	u := synth.NewUniverse(200, 8, 7)
	genes := u.ModuleGeneIDs(3)
	if len(genes) > 5 {
		genes = genes[:5]
	}
	q := strings.Join(genes, ",")

	rec := get(t, srv, "/api/search?q="+q+"&top=15")
	if rec.Code != http.StatusOK {
		t.Fatalf("search = %d: %s", rec.Code, rec.Body.String())
	}
	var sr struct {
		Datasets []json.RawMessage `json:"Datasets"`
		Genes    []json.RawMessage `json:"Genes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Datasets) != 3 || len(sr.Genes) == 0 {
		t.Fatalf("search shape: %d datasets, %d genes", len(sr.Datasets), len(sr.Genes))
	}

	rec = get(t, srv, "/api/enrich?genes="+q)
	if rec.Code != http.StatusOK {
		t.Fatalf("enrich = %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "results") {
		t.Fatal("enrich body missing results")
	}

	rec = get(t, srv, "/api/heatmap?dataset=0&w=64&h=64")
	if rec.Code != http.StatusOK {
		t.Fatalf("heatmap = %d: %s", rec.Code, rec.Body.String())
	}
	if !bytes.HasPrefix(rec.Body.Bytes(), []byte{0x89, 'P', 'N', 'G'}) {
		t.Fatal("heatmap is not a PNG")
	}

	rec = get(t, srv, "/api/stats")
	var snap server.StatsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Compendium.Datasets != 3 || snap.Compendium.GOTerms == 0 {
		t.Fatalf("stats compendium: %+v", snap.Compendium)
	}
	if snap.Endpoints["search"].Requests != 1 || snap.Endpoints["heatmap"].Requests != 1 {
		t.Fatalf("stats endpoints: %+v", snap.Endpoints)
	}

	// The SPELL HTML page is mounted on the same mux.
	rec = get(t, srv, "/")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "SPELL") {
		t.Fatalf("HTML index = %d", rec.Code)
	}
}

// TestReadmeHeatmapExamples: every /api/heatmap URL in README.md's sh
// blocks is a 200 PNG from the daemon its quickstart starts (the -demo
// flag defaults: 1,500 genes, 20 modules, 8 datasets, seed 1) with
// -cluster-arrays, which its atree= example needs.
func TestReadmeHeatmapExamples(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(readme, []byte("go run ./cmd/forestviewd -demo -addr 127.0.0.1:8080\n")) {
		t.Fatal("README's quickstart no longer starts the daemon with -demo alone: update this test's config")
	}
	srv, err := buildServer(buildConfig{
		demo: true, genes: 1500, modules: 20, datasets: 8, seed: 1,
		cacheMB: 64, workers: 2, maxGenes: 200, maxTileDim: 2048, clusterArrays: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	url := regexp.MustCompile(`'http://127\.0\.0\.1:8080(/api/heatmap\?[^']*)'`)
	blocks := regexp.MustCompile("(?s)```sh\n(.*?)```").FindAllSubmatch(readme, -1)
	n := 0
	for _, block := range blocks {
		for _, m := range url.FindAllSubmatch(block[1], -1) {
			n++
			rec := get(t, srv, string(m[1]))
			if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "image/png" {
				t.Errorf("README's %s = %d %s: %s", m[1], rec.Code, rec.Header().Get("Content-Type"), rec.Body)
			}
		}
	}
	if n < 5 {
		t.Fatalf("found %d /api/heatmap examples in README's sh blocks, want at least 5", n)
	}
}

// TestFileCompendium exercises the PCL loading path without an ontology:
// search and heatmap work, enrichment honestly reports 503.
func TestFileCompendium(t *testing.T) {
	dir := t.TempDir()
	u := synth.NewUniverse(120, 6, 9)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 2, MinExperiments: 8, MaxExperiments: 10, Seed: 11,
	})
	var paths []string
	for i, ds := range dss {
		p := filepath.Join(dir, "ds"+string(rune('a'+i))+".pcl")
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := microarray.WritePCL(f, ds); err != nil {
			t.Fatal(err)
		}
		f.Close()
		paths = append(paths, p)
	}

	srv, err := buildServer(buildConfig{files: strings.Join(paths, ","), cacheMB: 4, workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	genes := u.ModuleGeneIDs(2)[:2]
	rec := get(t, srv, "/api/search?q="+strings.Join(genes, ","))
	if rec.Code != http.StatusOK {
		t.Fatalf("search = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := get(t, srv, "/api/heatmap?dataset=dsa"); rec.Code != http.StatusOK {
		t.Fatalf("heatmap by file name = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := get(t, srv, "/api/enrich?genes="+genes[0]); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("enrich without ontology = %d", rec.Code)
	}
}

// TestFileShardLoadsWhatItOwns: a -files shard parses only the files it
// owns at boot — one it does not own may be unreadable then — and a
// membership reload that assigns it one more file parses that file from disk.
func TestFileShardLoadsWhatItOwns(t *testing.T) {
	dss, _ := synth.NewUniverse(120, 6, 9).GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 2, MinExperiments: 8, MaxExperiments: 10, Seed: 11,
	})
	// Under {shard-a, shard-b} at R=1, shard-a owns delta and shard-b alpha.
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "alpha.pcl"), filepath.Join(dir, "delta.pcl")}
	write := func(gi int, pcl bool) {
		t.Helper()
		var body bytes.Buffer
		if !pcl {
			body.WriteString("not a PCL file")
		} else if err := microarray.WritePCL(&body, dss[gi]); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paths[gi], body.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(0, false)
	write(1, true)
	var loaded []string
	srv, err := buildServer(buildConfig{
		files: strings.Join(paths, ","), role: "shard", shards: []string{"shard-a", "shard-b"}, self: "shard-a",
		fleetToken: "sesame", cacheMB: 4, workers: 1,
		log: func(format string, args ...any) {
			if strings.HasPrefix(format, "loaded %q") { // one file parsed
				loaded = append(loaded, args[0].(string))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	if fmt.Sprint(loaded) != "[delta]" {
		t.Fatalf("boot parsed %v, want only delta", loaded)
	}

	write(0, true)
	req := httptest.NewRequest(http.MethodPost, shard.ShardFleetPath, strings.NewReader(`{"shards":["shard-a"],"replication":1}`))
	req.Header.Set("X-Fleet-Token", "sesame")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	var view struct{ Held, Loaded int }
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil || view.Held != 2 || view.Loaded != 1 || fmt.Sprint(loaded) != "[delta alpha]" {
		t.Fatalf("reload = %d %s, having parsed %v; want alpha parsed, 2 held", rec.Code, rec.Body, loaded)
	}
}

func TestBuildServerErrors(t *testing.T) {
	if _, err := buildServer(buildConfig{files: "/nonexistent.pcl"}); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := buildServer(buildConfig{files: " , "}); err == nil {
		t.Fatal("empty file list accepted")
	}
	// The demo's enricher is synthetic: an -obo beside it is refused.
	if _, err := buildServer(buildConfig{demo: true, genes: 50, modules: 4, datasets: 1, obo: "x"}); err == nil {
		t.Fatal("demo with -obo accepted")
	}
}

// TestDemoRefusesFiles: -demo, which is also the default without -files,
// serves its own compendium and ontology, so it refuses -files, -obo and
// -assoc rather than leave them unread.
func TestDemoRefusesFiles(t *testing.T) {
	for _, cfg := range []buildConfig{
		{demo: true, files: "a.pcl"},
		{demo: true, obo: "go.obo", assoc: "go.assoc"},
		{assoc: "go.assoc"},
		{obo: "go.obo"},
	} {
		cfg.genes, cfg.modules, cfg.datasets = 50, 4, 1
		_, err := buildServer(cfg)
		if err == nil || !strings.Contains(err.Error(), "-demo") {
			t.Errorf("%+v: err = %v, want the -demo refusal", cfg, err)
		}
	}
}

// TestFilesRefuseDuplicateNames: a dataset is named by its trimmed file
// name, so two files of one name in two directories are one name twice,
// and the daemon refuses to boot, naming it, rather than answer every
// search 422. The names are known before any file is read, so the refusal
// comes before the parse: two files that are not PCL at all are refused
// for their names too.
func TestFilesRefuseDuplicateNames(t *testing.T) {
	u := synth.NewUniverse(60, 4, 9)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 2, MinExperiments: 6, MaxExperiments: 8, Seed: 11,
	})
	for _, valid := range []bool{true, false} {
		var paths []string
		for i, ds := range dss {
			dir := filepath.Join(t.TempDir(), string(rune('a'+i)))
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			p := filepath.Join(dir, "x.pcl")
			f, err := os.Create(p)
			if err != nil {
				t.Fatal(err)
			}
			if valid {
				err = microarray.WritePCL(f, ds)
			} else {
				_, err = f.WriteString("not a PCL file\n")
			}
			if err != nil {
				t.Fatal(err)
			}
			f.Close()
			paths = append(paths, p)
		}
		_, err := buildServer(buildConfig{files: strings.Join(paths, ","), cacheMB: 4, workers: 1})
		if err == nil || !strings.Contains(err.Error(), `"x"`) {
			t.Fatalf("two files named x (valid PCL: %v): err = %v, want a refusal naming \"x\"", valid, err)
		}
	}
}

func TestTrimPCLExt(t *testing.T) {
	cases := map[string]string{
		"/data/stress.pcl": "stress",
		"knockouts.PCL":    "knockouts",
		"plain":            "plain",
	}
	for in, want := range cases {
		if got := trimPCLExt(in); got != want {
			t.Errorf("trimPCLExt(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestGracefulShutdownDrainsInFlight is the signal-handling regression
// test: a simulated SIGINT while a request is in flight must stop the
// listener, let the request complete with its full body, and only then
// return from serve — no connection reset for work already accepted.
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		fmt.Fprint(w, "drained-ok")
	})
	hs := &http.Server{Handler: mux}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	served := make(chan error, 1)
	go func() {
		served <- serveUntilSignal(hs, ln, sig, 5*time.Second, func(string, ...any) {})
	}()

	type result struct {
		body string
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			resCh <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		resCh <- result{body: string(b), err: err}
	}()
	<-started

	sig <- os.Interrupt // simulated signal, no process-level delivery
	// The listener must refuse new work promptly while the in-flight
	// request is still held open.
	deadline := time.Now().Add(2 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", ln.Addr().String(), 100*time.Millisecond)
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after shutdown began")
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case err := <-served:
		t.Fatalf("serve returned before the in-flight request drained: %v", err)
	default:
	}

	close(release)
	if res := <-resCh; res.err != nil || res.body != "drained-ok" {
		t.Fatalf("in-flight request: %q, %v", res.body, res.err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("graceful shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after drain")
	}
}

// TestGracefulShutdownDrainTimeout: a handler that outlives the drain
// window surfaces as an explicit error instead of hanging forever.
func TestGracefulShutdownDrainTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/stuck", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
	})
	hs := &http.Server{Handler: mux}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	served := make(chan error, 1)
	go func() {
		served <- serveUntilSignal(hs, ln, sig, 50*time.Millisecond, func(string, ...any) {})
	}()
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/stuck")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	sig <- os.Interrupt
	select {
	case err := <-served:
		if err == nil || !strings.Contains(err.Error(), "graceful shutdown incomplete") {
			t.Fatalf("err = %v, want drain-timeout error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not give up after the drain window")
	}
}

// startDaemonFleet boots n -role=shard builds of the same demo compendium
// behind pre-bound loopback listeners, so the literal "127.0.0.1:port"
// strings serve as both the rendezvous identities and the dial addresses —
// exactly what a real deployment passes in -shards on every fleet member.
// Because the ports (and hence the rendezvous placement) are random, an
// unlucky draw can leave a shard with no datasets, or place every dataset
// alike, which buildServer rejects by design; such draws are retried with
// fresh ports. Returns the identity list and the running HTTP servers
// (index-aligned). A non-empty token arms the drain and fleet admin
// endpoints; drained (when non-nil) receives a shard's identity once it is
// drained.
func startDaemonFleet(t *testing.T, n, repl, datasets int, token string, drained chan string) ([]string, []*httptest.Server) {
	t.Helper()
attempt:
	for try := 0; try < 25; try++ {
		identities := make([]string, n)
		listeners := make([]net.Listener, n)
		for i := range identities {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			listeners[i] = ln
			identities[i] = ln.Addr().String()
		}
		servers := make([]*httptest.Server, 0, n)
		abort := func() {
			for _, hs := range servers {
				hs.Close()
			}
			for _, ln := range listeners {
				ln.Close() // double close of consumed listeners is harmless
			}
		}
		for i, self := range identities {
			self := self
			cfg := buildConfig{
				demo: true, genes: 200, modules: 8, datasets: datasets, seed: 7,
				cacheMB: 4, workers: 1,
				role: "shard", shards: identities, self: self, replication: repl,
				fleetToken: token,
			}
			if drained != nil {
				cfg.onDrained = func() { drained <- self }
			}
			srv, err := buildServer(cfg)
			if err != nil {
				if strings.Contains(err.Error(), "owns none") || strings.Contains(err.Error(), "one ownership group") {
					abort()
					continue attempt
				}
				t.Fatalf("shard %s: %v", self, err)
			}
			t.Cleanup(srv.Close)
			hs := httptest.NewUnstartedServer(srv)
			hs.Listener.Close()
			hs.Listener = listeners[i]
			hs.Start()
			servers = append(servers, hs)
		}
		for _, hs := range servers {
			t.Cleanup(hs.Close)
		}
		return identities, servers
	}
	t.Fatalf("no port draw in 25 tries gave all %d shards work over %d datasets", n, datasets)
	return nil, nil
}

type rankedSearch struct {
	Genes []struct {
		ID    string
		Score float64
	}
	Degraded bool `json:"degraded"`
}

// searchParity runs the same query through the coordinator and the
// single-process daemon and requires identical gene rankings and a
// non-degraded merge.
func searchParity(t *testing.T, coord, single *server.Server, q string) {
	t.Helper()
	recC := get(t, coord, "/api/search?q="+q+"&top=25")
	recS := get(t, single, "/api/search?q="+q+"&top=25")
	if recC.Code != http.StatusOK || recS.Code != http.StatusOK {
		t.Fatalf("coordinator = %d (%s), single = %d", recC.Code, recC.Body.String(), recS.Code)
	}
	if h := recC.Header().Get("X-Forestview-Degraded"); h != "false" {
		t.Fatalf("degraded header = %q", h)
	}
	var gotC, gotS rankedSearch
	if err := json.Unmarshal(recC.Body.Bytes(), &gotC); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(recS.Body.Bytes(), &gotS); err != nil {
		t.Fatal(err)
	}
	if len(gotC.Genes) == 0 || len(gotC.Genes) != len(gotS.Genes) {
		t.Fatalf("gene counts: %d vs %d", len(gotC.Genes), len(gotS.Genes))
	}
	for i := range gotS.Genes {
		if gotC.Genes[i].ID != gotS.Genes[i].ID {
			t.Fatalf("rank %d: %s vs %s", i, gotC.Genes[i].ID, gotS.Genes[i].ID)
		}
	}
}

// enrichParity runs the same selection through the coordinator's scatter
// enrichment and the single-process daemon and requires identical term
// rankings with a non-degraded merge — demo shards all carry the synthetic
// ontology, so the coordinator must reconstruct GOLEM's answer exactly.
func enrichParity(t *testing.T, coord, single *server.Server, q string) {
	t.Helper()
	recC := get(t, coord, "/api/enrich?genes="+q)
	recS := get(t, single, "/api/enrich?genes="+q)
	if recC.Code != http.StatusOK || recS.Code != http.StatusOK {
		t.Fatalf("coordinator = %d (%s), single = %d", recC.Code, recC.Body.String(), recS.Code)
	}
	if h := recC.Header().Get("X-Forestview-Degraded"); h != "false" {
		t.Fatalf("degraded header = %q", h)
	}
	type enrichBody struct {
		Results []struct {
			TermID   string
			Selected int
			PValue   float64
		} `json:"results"`
		Degraded bool `json:"degraded"`
	}
	var gotC, gotS enrichBody
	if err := json.Unmarshal(recC.Body.Bytes(), &gotC); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(recS.Body.Bytes(), &gotS); err != nil {
		t.Fatal(err)
	}
	if gotC.Degraded {
		t.Fatal("coordinator enrich degraded")
	}
	if len(gotC.Results) == 0 || len(gotC.Results) != len(gotS.Results) {
		t.Fatalf("result counts: %d vs %d", len(gotC.Results), len(gotS.Results))
	}
	for i := range gotS.Results {
		c, s := gotC.Results[i], gotS.Results[i]
		if c.TermID != s.TermID || c.Selected != s.Selected || c.PValue != s.PValue {
			t.Fatalf("rank %d: %+v vs %+v", i, c, s)
		}
	}
}

// TestShardCoordinatorTopologyE2E boots the daemon's real roles — two
// -role=shard builds over rendezvous-assigned slices of the same demo
// compendium and a -role=coordinator build over the same identity list —
// and checks /api/search through the coordinator against the
// single-process daemon, plus the scatter bookkeeping the roles expose.
// TestShardBootRefusesCollapsedPlacement: a catalog whose names differ only
// in their last byte is one ownership group under any fleet; a shard refuses
// to boot on it (before it parses a file) and says what to rename.
func TestShardBootRefusesCollapsedPlacement(t *testing.T) {
	cfg := buildConfig{
		files: "d/expr1.pcl,d/expr2.pcl,d/expr3.pcl,d/expr4.pcl",
		role:  "shard", shards: []string{"127.0.0.1:9001", "127.0.0.1:9002"}, self: "127.0.0.1:9001",
	}
	_, err := buildServer(cfg)
	if err == nil || !strings.Contains(err.Error(), "one ownership group") {
		t.Fatalf("boot on a collapsed catalog: err = %v, want the placement refusal", err)
	}
	// The same files under names that differ earlier get past placement (and
	// fail on the files, which do not exist).
	cfg.files = "d/1-expr.pcl,d/2-expr.pcl,d/3-expr.pcl,d/4-expr.pcl"
	if _, err := buildServer(cfg); err == nil || strings.Contains(err.Error(), "ownership group") {
		t.Fatalf("boot on a spread catalog: err = %v, want a file error", err)
	}
}

func TestShardCoordinatorTopologyE2E(t *testing.T) {
	identities, _ := startDaemonFleet(t, 2, 1, 4, "", nil)
	coord, err := buildServer(buildConfig{
		role: "coordinator", shards: identities,
		cacheMB: 4, workers: 1, shardDeadline: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	single, err := buildServer(buildConfig{
		demo: true, genes: 200, modules: 8, datasets: 4, seed: 7,
		cacheMB: 4, workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(single.Close)

	u := synth.NewUniverse(200, 8, 7)
	q := strings.Join(u.ModuleGeneIDs(3)[:4], ",")
	searchParity(t, coord, single, q)
	enrichParity(t, coord, single, strings.Join(u.ModuleGeneIDs(3), ","))

	var snap server.StatsSnapshot
	if err := json.Unmarshal(get(t, coord, "/api/stats").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Scatter == nil || snap.Scatter.ShardsTotal != 2 {
		t.Fatalf("scatter stats: %+v", snap.Scatter)
	}
	if snap.Compendium.Datasets != 4 {
		t.Fatalf("coordinator compendium: %+v", snap.Compendium)
	}
}

// TestShardCoordinatorReplicatedE2E is the daemon-level replication proof:
// three -replication=2 shards, one killed outright, and the coordinator
// still answers every query bit-identically to the single-process build
// with no degraded merges. Also exercises the runtime fleet-admin endpoint
// end to end: removing the dead member keeps the fleet healthy.
func TestShardCoordinatorReplicatedE2E(t *testing.T) {
	identities, servers := startDaemonFleet(t, 3, 2, 6, "", nil)
	coord, err := buildServer(buildConfig{
		role: "coordinator", shards: identities, replication: 2,
		fleetToken: "sesame",
		cacheMB:    4, workers: 1, shardDeadline: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	single, err := buildServer(buildConfig{
		demo: true, genes: 200, modules: 8, datasets: 6, seed: 7,
		cacheMB: 4, workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(single.Close)

	u := synth.NewUniverse(200, 8, 7)
	q := strings.Join(u.ModuleGeneIDs(3)[:4], ",")
	searchParity(t, coord, single, q)

	// Kill one replica. Every dataset still has a live owner, so merges
	// must stay complete (queries vary to dodge the coordinator cache).
	servers[1].Close()
	for _, m := range []int{1, 2, 4, 5} {
		searchParity(t, coord, single, strings.Join(u.ModuleGeneIDs(m)[:3], ","))
	}
	// Enrichment rides the same failover: any surviving replica of a
	// slice's owner group can tally it, so the merge stays exact.
	enrichParity(t, coord, single, strings.Join(u.ModuleGeneIDs(4), ","))

	var snap server.StatsSnapshot
	if err := json.Unmarshal(get(t, coord, "/api/stats").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Scatter == nil || snap.Scatter.Replication != 2 || snap.Scatter.Degraded != 0 {
		t.Fatalf("scatter stats after kill: %+v", snap.Scatter)
	}

	// Retire the dead member through the admin endpoint. Surviving shards
	// keep their boot-time holdings, but service stays whole: a dataset's
	// best-scoring survivor was already in the old top-2, so every
	// re-derived group's first-ranked owner holds the entire group and
	// failover reaches it even when the probed primary comes up short.
	body := strings.NewReader(`{"action":"remove","shard":"` + identities[1] + `"}`)
	req := httptest.NewRequest(http.MethodPost, "/api/admin/fleet", body)
	req.Header.Set("Authorization", "Bearer sesame")
	rec := httptest.NewRecorder()
	coord.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("fleet remove = %d: %s", rec.Code, rec.Body.String())
	}
	searchParity(t, coord, single, strings.Join(u.ModuleGeneIDs(7)[:3], ","))
	if err := json.Unmarshal(get(t, coord, "/api/stats").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Scatter.ShardsTotal != 2 || snap.Scatter.MembershipBumps != 1 {
		t.Fatalf("scatter stats after remove: %+v", snap.Scatter)
	}
}

// TestBuildServerRoleValidation pins the role flag contract.
func TestBuildServerRoleValidation(t *testing.T) {
	if _, err := buildServer(buildConfig{demo: true, genes: 50, modules: 4, datasets: 1, role: "sharded"}); err == nil {
		t.Fatal("bad role accepted")
	}
	if _, err := buildServer(buildConfig{role: "coordinator"}); err == nil {
		t.Fatal("coordinator without shards accepted")
	}
	if _, err := buildServer(buildConfig{role: "coordinator", shards: []string{"a:1"}, obo: "x"}); err == nil {
		t.Fatal("coordinator with -obo accepted")
	}
	if _, err := buildServer(buildConfig{demo: true, genes: 50, modules: 4, datasets: 2, role: "shard"}); err == nil {
		t.Fatal("shard without -shards/-self accepted")
	}
	if _, err := buildServer(buildConfig{
		demo: true, genes: 50, modules: 4, datasets: 2,
		role: "shard", shards: []string{"a:1", "b:1"}, self: "c:1",
	}); err == nil {
		t.Fatal("-self outside -shards accepted")
	}
	if _, err := buildServer(buildConfig{
		demo: true, genes: 50, modules: 4, datasets: 2,
		role: "shard", shards: []string{"a:1", "b:1"}, self: "a:1", replication: -1,
	}); err == nil {
		t.Fatal("negative -replication accepted")
	}
	if _, err := buildServer(buildConfig{
		role: "coordinator", shards: []string{"a:1", "b:1"}, replication: 3,
	}); err == nil {
		t.Fatal("-replication beyond fleet size accepted")
	}
}

// TestDaemonShardDrainE2E proves the cmd-layer drain wiring end to end: a
// 3-shard R=2 daemon fleet boots with the admin token armed, the
// survivors adopt the post-drain topology through the fleet endpoint, and
// draining the remaining member fires the onDrained hook — the callback
// main turns into a SIGTERM for the ordinary graceful shutdown.
func TestDaemonShardDrainE2E(t *testing.T) {
	post := func(url string, body []byte) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Fleet-Token", "sesame")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}

	// Rolling-restart order: survivors reload to the post-drain topology
	// first. About one port draw in 32 places all six datasets alike over
	// the two survivors, which a reload refuses as one ownership group:
	// draw another fleet then, as startDaemonFleet does for a boot.
	var (
		drained    chan string
		identities []string
		servers    []*httptest.Server
		fleetBody  []byte
	)
reload:
	for try := 0; ; try++ {
		drained = make(chan string, 3)
		identities, servers = startDaemonFleet(t, 3, 2, 6, "sesame", drained)
		var err error
		fleetBody, err = json.Marshal(map[string]any{"shards": identities[1:], "replication": 2})
		if err != nil {
			t.Fatal(err)
		}
		for i, hs := range servers[1:] {
			resp, b := post(hs.URL+shard.ShardFleetPath, fleetBody)
			if resp.StatusCode == http.StatusOK {
				continue
			}
			if i == 0 && try < 24 && strings.Contains(string(b), "one ownership group") {
				continue reload
			}
			t.Fatalf("survivor %d reload = %d: %s", i+1, resp.StatusCode, b)
		}
		break
	}
	resp, b := post(servers[0].URL+shard.DrainPath, fleetBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain = %d: %s", resp.StatusCode, b)
	}
	var dr struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(b, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Status != shard.StatusDraining {
		t.Fatalf("drain response: %s", b)
	}
	select {
	case id := <-drained:
		if id != identities[0] {
			t.Fatalf("onDrained fired for %q, want %q", id, identities[0])
		}
	case <-time.After(2 * time.Second):
		t.Fatal("onDrained never fired")
	}
}
