//go:build go1.24

package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"forestview/internal/microarray"
	"forestview/internal/shard"
	"forestview/internal/spell"
	"forestview/internal/synth"
)

// released collects the cleanups of watched objects: each watch sends its
// key once the collector has found the object unreachable.
type released chan int

// watch sends key on r once p is collected. p may point into an allocation.
func watch[T any](r released, p *T, key int) {
	runtime.AddCleanup(p, func(k int) { r <- k }, key)
}

// await collects until want keys have arrived or five seconds have passed,
// and reports how many cleanups ran for each key.
func (r released) await(want int) map[int]int {
	got, n := map[int]int{}, 0
	for deadline := time.Now().Add(5 * time.Second); n < want && time.Now().Before(deadline); {
		runtime.GC()
		select {
		case k := <-r:
			got[k]++
			n++
		case <-time.After(10 * time.Millisecond):
		}
	}
	// A last collection, for any cleanup that should not run.
	runtime.GC()
	time.Sleep(20 * time.Millisecond)
	for {
		select {
		case k := <-r:
			got[k]++
		default:
			return got
		}
	}
}

// parsedCompendium is n synthetic datasets as ReadPCL returns them, each
// watched under its index in three places: the dataset, its cell array and
// its string arena. Each dataset's first gene is its own, so an engine that
// kept the gene IDs it was handed would pin every arena.
func parsedCompendium(t *testing.T, n int, r released) []*microarray.Dataset {
	t.Helper()
	u := synth.NewUniverse(240, 6, 61)
	gen, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: n, MinExperiments: 8, MaxExperiments: 12,
		ActiveFraction: 0.5, Noise: 0.3, MissingRate: 0.02, Seed: 62,
	})
	dss := make([]*microarray.Dataset, n)
	for i, g := range gen {
		g.Genes[0].ID = fmt.Sprintf("only-in-%d", i)
		var pcl bytes.Buffer
		if err := microarray.WritePCL(&pcl, g); err != nil {
			t.Fatal(err)
		}
		ds, err := microarray.ReadPCL(&pcl, g.Name)
		if err != nil {
			t.Fatal(err)
		}
		watch(r, ds, i)
		watch(r, &ds.Data[0][0], i)
		watch(r, unsafe.StringData(ds.Genes[0].ID), i)
		dss[i] = ds
	}
	return dss
}

// TestServerKeepsNoNonPaneRows: a daemon whose panes are two of its six
// datasets keeps the rows of those two and of no other. The engine keeps
// its slabs and strings of its own, and the server does not keep the
// config's dataset slices, whose backing array would pin all six. A growing
// reload drops the engine it replaces, and the group view derived from it.
func TestServerKeepsNoNonPaneRows(t *testing.T) {
	t.Run("panes", func(t *testing.T) {
		r := make(released, 64)
		s := func() *Server {
			dss := parsedCompendium(t, 6, r)
			engine, err := spell.NewEngine(dss)
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(Config{Engine: engine, RawDatasets: dss[:2]})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}()
		t.Cleanup(s.Close)
		got := r.await(3 * 4)
		for di := range 6 {
			if want := map[bool]int{true: 0, false: 3}[di < 2]; got[di] != want {
				t.Errorf("dataset %d: %d of its 3 cleanups ran, want %d", di, got[di], want)
			}
		}
		// What is kept still serves: a search, and a tile of a pane.
		for _, url := range []string{"/api/search?q=" + s.shardState().engine.GeneIDs()[0] + "," + s.shardState().engine.GeneIDs()[1],
			"/api/heatmap?dataset=1&w=32&h=32"} {
			if rec := get(t, s, url); rec.Code != http.StatusOK {
				t.Fatalf("%s = %d: %s", url, rec.Code, rec.Body)
			}
		}
	})

	t.Run("reload", func(t *testing.T) {
		r := make(released, 64)
		dss := parsedCompendium(t, 4, r)
		catalog := make([]string, len(dss))
		for i, ds := range dss {
			catalog[i] = ds.Name
		}
		fleet := []string{"shard-0", "shard-1"}
		s := func() *Server {
			owned := shard.OwnedIndexesR(catalog, fleet, fleet[0], 1)
			if len(owned) == 0 || len(owned) == len(dss) {
				t.Fatalf("shard-0 owns %d of %d datasets: nothing to grow", len(owned), len(dss))
			}
			var held []*microarray.Dataset
			for _, gi := range owned {
				held = append(held, dss[gi])
			}
			engine, err := spell.NewEngine(held)
			if err != nil {
				t.Fatal(err)
			}
			watch(r, engine, -1)
			s, err := New(Config{
				Engine: engine, ShardIndexes: owned, ShardDatasetIDs: catalog,
				ShardSelf: fleet[0], ShardFleet: fleet,
				ShardLoader: func(_ context.Context, gi int) (*microarray.Dataset, error) { return dss[gi], nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}()
		t.Cleanup(s.Close)
		// A grouped shard search first: the ownership-group view it caches
		// is derived against the boot state, and must not outlive it.
		req := shard.SearchRequest{
			Query: s.shardState().engine.GeneIDs()[1:3], Shards: fleet, Replication: 1,
			Groups: shard.Groups(catalog, fleet, 1),
		}
		if rec, a := postShard[shard.SearchAnswer](t, s, shard.SearchPath, req); a == nil {
			t.Fatalf("shard search before the reload = %d: %s", rec.Code, rec.Body)
		}
		if _, loaded, err := s.reloadShard(context.Background(), fleet[:1], 1); err != nil || loaded == 0 {
			t.Fatalf("growing reload: loaded %d, err %v", loaded, err)
		}
		if got := r.await(1); got[-1] != 1 {
			t.Errorf("the boot engine outlived the growing reload (cleanups: %v)", got)
		}
		if n := s.shardState().engine.NumDatasets(); n != len(dss) {
			t.Fatalf("grown engine holds %d datasets, want %d", n, len(dss))
		}
	})
}
