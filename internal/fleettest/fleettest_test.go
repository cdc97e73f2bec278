package fleettest

import (
	"io"
	"net/http"
	"slices"
	"testing"

	"forestview/internal/synth"
)

// echo is a member that answers every request with its identity.
type echo string

func (e echo) ServeHTTP(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, string(e)) }
func (echo) Close()                                             {}

func TestPlacementKillRestart(t *testing.T) {
	dss, _ := synth.NewUniverse(60, 4, 1).GenerateCompendium(synth.CompendiumSpec{NumDatasets: 6, MinExperiments: 4, MaxExperiments: 6, Seed: 2})
	spec := Spec[echo]{Datasets: dss, Shards: 3, Replication: 2, Boot: func(m Member) (echo, error) { return echo(m.ID), nil }}
	f, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	owners := make([]int, len(dss))
	for _, m := range f.Members() {
		for li, gi := range m.Owned {
			if owners[gi]++; m.Datasets[li] != dss[gi] || m.Engine.NumDatasets() != len(m.Owned) {
				t.Fatalf("%s: dataset %d is not global dataset %d", m.ID, li, gi)
			}
		}
	}
	old := f.URL(1)
	f.Kill(1)
	if _, err := http.Get(old); err == nil || f.Restart(1) != nil || f.URL(1) == old {
		t.Fatalf("killed member answers (%v), or restarted at %s", err, f.URL(1))
	}
	resp, err := http.Get(f.URL(1))
	if err != nil {
		t.Fatal(err)
	}
	id, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(id) != "shard-1" || f.Conns(1) != 1 || f.Conns(0) != 0 || slices.ContainsFunc(owners, func(n int) bool { return n != 2 }) {
		t.Fatalf("restarted member answers %q over %d connections; owners %v", id, f.Conns(1), owners)
	}
	spec.Datasets, spec.Replication = dss[:1], 1
	if _, err := New(spec); err == nil {
		t.Fatal("two of three members own nothing, and New did not refuse")
	}
}
