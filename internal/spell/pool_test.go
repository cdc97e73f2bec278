package spell_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"forestview/internal/fleettest"
	"forestview/internal/server"
	"forestview/internal/shard"
	"forestview/internal/spell"
	"forestview/internal/synth"
)

// TestPooledColumnsStayWithTheirOwner runs scattered searches (four shards
// at R=2, so answers cross HTTP and merge several parts) and single-daemon
// searches (one local member, a lone part merged in place) all at once, with
// every buffer released to the column pool turned to NaN, and holds each
// body to the one the same request gets when nothing else runs. A buffer
// released while someone still reads it, or handed to two owners at once,
// shows up as NaN or as another search's numbers in some body; under -race,
// as a race.
func TestPooledColumnsStayWithTheirOwner(t *testing.T) {
	defer spell.PoisonReleased()()
	u := synth.NewUniverse(400, 8, 61)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 8, MinExperiments: 8, MaxExperiments: 12,
		ActiveFraction: 0.5, Noise: 0.3, MissingRate: 0.02, Seed: 62,
	})
	fleet, err := fleettest.New(fleettest.Spec[*server.Server]{
		Datasets: dss, Shards: 4, Replication: 2,
		Coordinator: shard.Config{Deadline: time.Minute},
		Boot: func(m fleettest.Member) (*server.Server, error) {
			return server.New(server.Config{Engine: m.Engine, ShardIndexes: m.Owned, ShardDatasetIDs: m.Catalog})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	engine, err := spell.NewEngine(dss)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh daemons: every request below is a miss on the daemon it asks.
	daemons := func() (single, scattered *server.Server) {
		single, err := server.New(server.Config{Engine: engine})
		if err == nil {
			scattered, err = server.New(server.Config{Scatter: fleet.Coordinator()})
		}
		if err != nil {
			t.Fatal(err)
		}
		return single, scattered
	}
	var urls []string
	for m := range 4 {
		q := strings.Join(u.ModuleGeneIDs(m)[:3+m%2], ",")
		for top := 1; top <= 6; top++ {
			urls = append(urls, fmt.Sprintf("/api/search?q=%s&top=%d", q, top))
		}
	}
	urls = append(urls, "/api/search?q="+u.ModuleGeneIDs(1)[0]+",NOT-A-GENE") // incoherent everywhere: two rounds
	// get returns the answer without the fields saying which replicas
	// served it, which a busy fleet picks differently.
	get := func(s *server.Server, url string) string {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		body, _, ok := strings.Cut(rec.Body.String(), `,"shards_ok":`)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Forestview-Cache") != "miss" || !ok || rec.Header().Get("X-Forestview-Degraded") != "false" {
			t.Errorf("%s = %d (%s): %s", url, rec.Code, rec.Header().Get("X-Forestview-Cache"), rec.Body)
		}
		return body
	}

	single, scattered := daemons()
	want := map[*server.Server]map[string]string{}
	for _, s := range []*server.Server{single, scattered} {
		want[s] = map[string]string{}
		for _, url := range urls {
			want[s][url] = get(s, url)
		}
		if body := want[s][urls[0]]; strings.Contains(body, "NaN") || !strings.Contains(body, `"Score"`) {
			t.Fatalf("sequential answer: %s", body)
		}
	}
	for range 2 {
		ref := map[*server.Server]*server.Server{}
		single2, scattered2 := daemons()
		ref[single2], ref[scattered2] = single, scattered
		var wg sync.WaitGroup
		for _, s := range []*server.Server{single2, scattered2} {
			for _, url := range urls {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if got, want := get(s, url), want[ref[s]][url]; got != want {
						t.Errorf("%s, run beside the others:\n got %s\nwant %s", url, short(got, want), short(want, got))
					}
				}()
			}
		}
		wg.Wait()
		single2.Close()
		scattered2.Close()
	}
}

// short is a from its first byte that differs from b on.
func short(a, b string) string {
	i := 0
	for i < min(len(a), len(b)) && a[i] == b[i] {
		i++
	}
	return a[max(i-20, 0):min(i+80, len(a))]
}
