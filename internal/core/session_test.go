package core

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"forestview/internal/cluster"
	"forestview/internal/oracle"
	"forestview/internal/synth"
)

func TestSessionRoundTrip(t *testing.T) {
	_, fv := buildFixture(t)
	// Mutate every dimension of the state.
	_ = fv.SelectRegion(1, 5, 14)
	fv.SetSynchronized(false)
	fv.OrderPanesBy(map[string]float64{"gamma": 3, "beta": 2, "alpha": 1})
	fv.Pane(0).Prefs.ContrastLimit = 3.5
	fv.Pane(0).Prefs.ColorMap = 1
	fv.Pane(2).Prefs.ShowLabels = false

	var buf bytes.Buffer
	if err := fv.SaveSession(&buf); err != nil {
		t.Fatal(err)
	}

	// Fresh ForestView over the same datasets.
	_, fv2 := buildFixture(t)
	if err := fv2.RestoreSession(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if fv2.syncViews {
		t.Fatal("sync flag lost")
	}
	order := fv2.PaneOrder()
	if fv2.Pane(order[0]).DS.Data.Name != "gamma" {
		t.Fatalf("pane order lost: %v", order)
	}
	sel := fv2.Selection()
	if sel.Len() != 10 {
		t.Fatalf("selection lost: %d", sel.Len())
	}
	for i, id := range fv.Selection().IDs {
		if sel.IDs[i] != id {
			t.Fatal("selection order changed")
		}
	}
	if fv2.Pane(0).Prefs.ContrastLimit != 3.5 || fv2.Pane(0).Prefs.ColorMap != 1 {
		t.Fatalf("prefs lost: %+v", fv2.Pane(0).Prefs)
	}
	if fv2.Pane(2).Prefs.ShowLabels {
		t.Fatal("ShowLabels lost")
	}
}

func TestSessionRestoreEmptySelection(t *testing.T) {
	_, fv := buildFixture(t)
	var buf bytes.Buffer
	if err := fv.SaveSession(&buf); err != nil {
		t.Fatal(err)
	}
	_, fv2 := buildFixture(t)
	_ = fv2.SelectRegion(0, 0, 5)
	if err := fv2.RestoreSession(&buf); err != nil {
		t.Fatal(err)
	}
	if fv2.Selection() != nil {
		t.Fatal("restoring an empty-selection session should clear the selection")
	}
}

func TestSessionRestoreUnknownDatasets(t *testing.T) {
	// A session saved with extra datasets restores gracefully onto fewer.
	_, fv := buildFixture(t)
	_ = fv.SelectRegion(0, 0, 4)
	var buf bytes.Buffer
	if err := fv.SaveSession(&buf); err != nil {
		t.Fatal(err)
	}
	// Build a ForestView with only one of the datasets.
	u := synth.NewUniverse(60, 6, 7)
	ds := u.Generate(synth.DatasetSpec{Name: "alpha", Kind: synth.StressStudy,
		NumExperiments: 12, ESRStrength: 1, Seed: 11})
	cd, err := Cluster(ds, ClusterOptions{Metric: cluster.PearsonDist, Linkage: cluster.AverageLinkage})
	if err != nil {
		t.Fatal(err)
	}
	small, err := New([]*ClusteredDataset{cd})
	if err != nil {
		t.Fatal(err)
	}
	if err := small.RestoreSession(&buf); err != nil {
		t.Fatal(err)
	}
	if small.Selection().Len() != 5 {
		t.Fatal("selection should survive partial restore")
	}
}

func TestSessionRestoreErrors(t *testing.T) {
	_, fv := buildFixture(t)
	if err := fv.RestoreSession(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage should error")
	}
	if err := fv.RestoreSession(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Fatal("unknown version should error")
	}
}

// TestClusterWithOptimizedOrder: the oriented pane orders no worse than
// the plain one, its display order is its gene tree's leaf order, and its
// pyramid aggregates the rows in that order.
func TestClusterWithOptimizedOrder(t *testing.T) {
	u := synth.NewUniverse(200, 6, 9)
	ds := u.Generate(synth.DatasetSpec{Name: "opt", NumExperiments: 12, Seed: 15})
	plain, err := Cluster(ds, ClusterOptions{
		Metric: cluster.PearsonDist, Linkage: cluster.AverageLinkage})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Cluster(ds, ClusterOptions{
		Metric: cluster.PearsonDist, Linkage: cluster.AverageLinkage, OptimizeOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	qPlain := cluster.OrderQuality(ds.Data, plain.DisplayOrder)
	qOpt := cluster.OrderQuality(ds.Data, opt.DisplayOrder)
	if qOpt < qPlain-1e-9 {
		t.Fatalf("optimized order quality %v worse than naive %v", qOpt, qPlain)
	}
	if !slices.Equal(opt.DisplayOrder, opt.GeneTree.LeafOrder()) {
		t.Fatal("display order is not the oriented gene tree's leaf order")
	}
	// DisplayPos stays the inverse.
	for pos, row := range opt.DisplayOrder {
		if opt.DisplayPos(row) != pos {
			t.Fatal("DisplayPos is not DisplayOrder's inverse")
		}
	}
	rows := make([][]float64, 0, ds.NumGenes())
	for _, row := range opt.GeneTree.LeafOrder() {
		rows = append(rows, ds.Row(row))
	}
	want := oracle.PyramidLevel(rows, ds.NumExperiments(), 1)
	got := opt.Pyramid(PyramidOptions{}).Level(1)
	if got.NRows != len(want) {
		t.Fatalf("level 1 has %d rows, want %d", got.NRows, len(want))
	}
	for i, wantRow := range want {
		for c, w := range wantRow {
			g := got.F64[i][c]
			if math.IsNaN(w) != math.IsNaN(g) || (!math.IsNaN(w) && math.Abs(g-w) > 1e-12) {
				t.Fatalf("level 1 row %d col %d: got %v, want %v", i, c, g, w)
			}
		}
	}
}
