package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"forestview/internal/cluster"
	"forestview/internal/microarray"
	"forestview/internal/synth"
)

// buildFixture returns a ForestView over three small synthetic datasets
// sharing a universe.
func buildFixture(t testing.TB) (*synth.Universe, *ForestView) {
	t.Helper()
	u := synth.NewUniverse(60, 6, 7)
	specs := []synth.DatasetSpec{
		{Name: "alpha", Kind: synth.StressStudy, NumExperiments: 12, ESRStrength: 1, Seed: 11},
		{Name: "beta", Kind: synth.NutrientStudy, NumExperiments: 10, ESRStrength: 0.6, Seed: 13},
		{Name: "gamma", Kind: synth.GenericStudy, NumExperiments: 8, Seed: 17},
	}
	var cds []*ClusteredDataset
	for _, s := range specs {
		ds := u.Generate(s)
		cd, err := Cluster(ds, ClusterOptions{
			Metric: cluster.PearsonDist, Linkage: cluster.AverageLinkage, ClusterArrays: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		cds = append(cds, cd)
	}
	fv, err := New(cds)
	if err != nil {
		t.Fatal(err)
	}
	return u, fv
}

// TestClusterRefusesUntileableInput: the clustering kernel computes Pearson
// distance over rows of one length and nothing else. Any other Metric value
// and rows of unequal length are an error from cluster.HierarchicalCtx and
// from ClusterCtx, given before the distance matrix — 72 MB at these 3,000
// rows — is allocated.
func TestClusterRefusesUntileableInput(t *testing.T) {
	const n, dim = 3000, 6
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, dim)
		for j := range rows[i] {
			rows[i][j] = float64((i*7 + j*j*3) % 11)
		}
	}
	ragged := append([][]float64(nil), rows...)
	ragged[n/2] = ragged[n/2][:dim-1]
	ctx := context.Background()
	run := map[string]func(rows [][]float64, metric cluster.Metric) error{
		"HierarchicalCtx": func(rows [][]float64, metric cluster.Metric) error {
			_, err := cluster.HierarchicalCtx(ctx, rows, metric, cluster.AverageLinkage)
			return err
		},
		"ClusterCtx": func(rows [][]float64, metric cluster.Metric) error {
			ds := &microarray.Dataset{Name: "refused", Experiments: make([]string, dim), Data: rows}
			_, err := ClusterCtx(ctx, ds, ClusterOptions{Metric: metric, Linkage: cluster.AverageLinkage})
			return err
		},
	}
	for name, build := range run {
		if err := build(rows[:40], cluster.PearsonDist); err != nil {
			t.Fatalf("%s: rectangular rows under PearsonDist: %v", name, err)
		}
		for _, c := range []struct {
			what   string
			rows   [][]float64
			metric cluster.Metric
		}{
			{"ragged rows", ragged, cluster.PearsonDist},
			{"Metric(1)", rows, cluster.PearsonDist + 1},
			{"Metric(4)", rows, cluster.PearsonDist + 4},
			{"Metric(-1)", rows, cluster.PearsonDist - 1},
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := build(c.rows, c.metric)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s, %s: clustered without an error", name, c.what)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
				t.Errorf("%s, %s: %d bytes allocated before the refusal", name, c.what, alloc)
			}
		}
	}
}

func TestClusterBuildsTreesAndOrder(t *testing.T) {
	u := synth.NewUniverse(30, 5, 1)
	ds := u.Generate(synth.DatasetSpec{Name: "d", NumExperiments: 8, Seed: 3})
	cd, err := Cluster(ds, ClusterOptions{Metric: cluster.PearsonDist, Linkage: cluster.AverageLinkage, ClusterArrays: true})
	if err != nil {
		t.Fatal(err)
	}
	if cd.GeneTree == nil || cd.ArrayTree == nil {
		t.Fatal("trees missing")
	}
	if len(cd.DisplayOrder) != 30 {
		t.Fatalf("display order = %d", len(cd.DisplayOrder))
	}
	// DisplayOrder is a permutation; DisplayPos inverts it.
	seen := make([]bool, 30)
	for pos, row := range cd.DisplayOrder {
		if seen[row] {
			t.Fatal("display order not a permutation")
		}
		seen[row] = true
		if cd.DisplayPos(row) != pos {
			t.Fatal("DisplayPos does not invert DisplayOrder")
		}
	}
	if cd.DisplayPos(-1) != -1 || cd.DisplayPos(99) != -1 {
		t.Fatal("out-of-range DisplayPos should be -1")
	}
}

func TestClusterErrors(t *testing.T) {
	if _, err := Cluster(nil, ClusterOptions{}); err == nil {
		t.Fatal("nil dataset should error")
	}
	empty := microarray.NewDataset("e", []string{"x"})
	if _, err := Cluster(empty, ClusterOptions{}); err == nil {
		t.Fatal("empty dataset should error")
	}
	if _, err := FromDataset(nil); err == nil {
		t.Fatal("nil FromDataset should error")
	}
}

func TestFromDatasetIdentityOrder(t *testing.T) {
	ds := microarray.NewDataset("d", []string{"a"})
	_ = ds.AddGene(microarray.Gene{ID: "G1"}, []float64{1})
	_ = ds.AddGene(microarray.Gene{ID: "G2"}, []float64{2})
	cd, err := FromDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	if cd.DisplayOrder[0] != 0 || cd.DisplayOrder[1] != 1 {
		t.Fatalf("identity order = %v", cd.DisplayOrder)
	}
	if ids := cd.Data.GeneIDs(); ids[cd.DisplayOrder[0]] != "G1" || ids[cd.DisplayOrder[1]] != "G2" {
		t.Fatalf("IDs = %v", ids)
	}
}

func TestMergedInterface(t *testing.T) {
	_, fv := buildFixture(t)
	m := fv.Merged()
	if m.NumDatasets() != 3 {
		t.Fatalf("datasets = %d", m.NumDatasets())
	}
	if m.NumGenes() != 60 {
		t.Fatalf("genes = %d", m.NumGenes())
	}
	// 3-D access agrees with direct dataset access.
	ds0 := m.datasets[0]
	for g := 0; g < 5; g++ {
		id := m.geneIDs[g]
		row, ok := ds0.GeneIndex(id)
		if !ok {
			t.Fatalf("gene %s missing from dataset 0", id)
		}
		for e := 0; e < m.NumExperiments(0); e++ {
			got := m.Value(0, g, e)
			want := ds0.Value(row, e)
			if math.IsNaN(got) != math.IsNaN(want) || (!math.IsNaN(got) && got != want) {
				t.Fatalf("Value(0,%d,%d) = %v, want %v", g, e, got, want)
			}
		}
	}
	// Out-of-range access is NaN, not a panic.
	if !math.IsNaN(m.Value(-1, 0, 0)) || !math.IsNaN(m.Value(0, -1, 0)) || !math.IsNaN(m.Value(0, 0, 1000)) {
		t.Fatal("out-of-range Value should be NaN")
	}
}

func TestMergedPartialOverlap(t *testing.T) {
	a := microarray.NewDataset("a", []string{"x"})
	_ = a.AddGene(microarray.Gene{ID: "G1"}, []float64{1})
	_ = a.AddGene(microarray.Gene{ID: "G2"}, []float64{2})
	b := microarray.NewDataset("b", []string{"y"})
	_ = b.AddGene(microarray.Gene{ID: "G2"}, []float64{20})
	_ = b.AddGene(microarray.Gene{ID: "G3"}, []float64{30})
	m, err := NewMerged([]*microarray.Dataset{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumGenes() != 3 {
		t.Fatalf("union genes = %d", m.NumGenes())
	}
	g1 := m.geneIdx["G1"]
	if !math.IsNaN(m.Value(1, g1, 0)) {
		t.Fatal("G1 absent from b should be NaN")
	}
	g2 := m.geneIdx["G2"]
	if m.Value(0, g2, 0) != 2 || m.Value(1, g2, 0) != 20 {
		t.Fatal("shared gene values wrong")
	}
	if m.row[1][g1] != -1 {
		t.Fatal("absent row index should be -1")
	}
}

func TestSelectRegion(t *testing.T) {
	_, fv := buildFixture(t)
	if err := fv.SelectRegion(0, 5, 9); err != nil {
		t.Fatal(err)
	}
	sel := fv.Selection()
	if sel.Len() != 5 {
		t.Fatalf("selection = %d", sel.Len())
	}
	// Selection order is the pane's display order.
	cd := fv.Pane(0).DS
	for i, id := range sel.IDs {
		wantID := cd.Data.Genes[cd.DisplayOrder[5+i]].ID
		if id != wantID {
			t.Fatalf("selection[%d] = %s, want %s", i, id, wantID)
		}
	}
	// Region bounds clamp.
	if err := fv.SelectRegion(0, -10, 2); err != nil {
		t.Fatal(err)
	}
	if fv.Selection().Len() != 3 {
		t.Fatalf("clamped selection = %d", fv.Selection().Len())
	}
	// Reversed bounds swap.
	if err := fv.SelectRegion(0, 9, 5); err != nil {
		t.Fatal(err)
	}
	if fv.Selection().Len() != 5 {
		t.Fatal("reversed region broken")
	}
	if err := fv.SelectRegion(99, 0, 1); err == nil {
		t.Fatal("bad pane should error")
	}
}

func TestSelectQueryAndFind(t *testing.T) {
	u, fv := buildFixture(t)
	// Module names appear in gene annotations; search for the ESR.
	n, err := fv.SelectQuery("stress response induced")
	if err != nil {
		t.Fatal(err)
	}
	wantLen := len(u.ModuleGeneIDs(u.ESRInduced))
	if n != wantLen {
		t.Fatalf("query selected %d, want %d", n, wantLen)
	}
	if _, err := fv.SelectQuery("zzz-no-such-thing"); err == nil {
		t.Fatal("no-match query should error")
	}
}

func TestSelectListDeduplicates(t *testing.T) {
	_, fv := buildFixture(t)
	fv.SelectList([]string{"A", "B", "A", "C", "B"}, "test")
	if got := fv.Selection().Len(); got != 3 {
		t.Fatalf("dedup selection = %d", got)
	}
	if sel := fv.Selection(); !sel.set["A"] || sel.set["Z"] {
		t.Fatal("membership broken")
	}
}

// The core synchronized-view invariant: the same row index across panes is
// the same gene.
func TestSynchronizedRowAlignment(t *testing.T) {
	_, fv := buildFixture(t)
	if err := fv.SelectRegion(1, 0, 9); err != nil {
		t.Fatal(err)
	}
	fv.SetSynchronized(true)
	var contents [][]ZoomRow
	for p := 0; p < fv.NumPanes(); p++ {
		contents = append(contents, fv.ZoomContent(p))
	}
	for p := 1; p < len(contents); p++ {
		if len(contents[p]) != len(contents[0]) {
			t.Fatalf("pane %d rows = %d, pane 0 = %d", p, len(contents[p]), len(contents[0]))
		}
		for i := range contents[p] {
			if contents[p][i].GeneID != contents[0][i].GeneID {
				t.Fatalf("row %d: pane %d shows %s, pane 0 shows %s",
					i, p, contents[p][i].GeneID, contents[0][i].GeneID)
			}
		}
	}
	// Every row resolves to the right data row in its own pane.
	for p := 0; p < fv.NumPanes(); p++ {
		cd := fv.Pane(p).DS
		for _, zr := range contents[p] {
			if zr.Row >= 0 && cd.Data.Genes[zr.Row].ID != zr.GeneID {
				t.Fatalf("pane %d row points at wrong gene", p)
			}
		}
	}
}

func TestUnsynchronizedUsesNativeOrder(t *testing.T) {
	_, fv := buildFixture(t)
	if err := fv.SelectRegion(0, 0, 14); err != nil {
		t.Fatal(err)
	}
	fv.SetSynchronized(false)
	for p := 0; p < fv.NumPanes(); p++ {
		rows := fv.ZoomContent(p)
		cd := fv.Pane(p).DS
		// No placeholders in unsynchronized mode.
		prevPos := -1
		for _, zr := range rows {
			if zr.Row < 0 {
				t.Fatalf("pane %d has placeholder in unsync mode", p)
			}
			pos := cd.DisplayPos(zr.Row)
			if pos <= prevPos {
				t.Fatalf("pane %d zoom not in native display order", p)
			}
			prevPos = pos
		}
	}
}

func TestZoomContentNoSelection(t *testing.T) {
	_, fv := buildFixture(t)
	if fv.ZoomContent(0) != nil {
		t.Fatal("no selection should yield nil zoom")
	}
	if fv.ZoomContent(-1) != nil {
		t.Fatal("bad pane should yield nil")
	}
}

func TestHighlightPositions(t *testing.T) {
	_, fv := buildFixture(t)
	_ = fv.SelectRegion(0, 3, 7)
	for p := 0; p < fv.NumPanes(); p++ {
		hl := fv.highlightLocked(p)
		if len(hl) != 5 {
			t.Fatalf("pane %d highlights = %d", p, len(hl))
		}
		cd := fv.Pane(p).DS
		for pos := range hl {
			id := cd.Data.Genes[cd.DisplayOrder[pos]].ID
			if !fv.Selection().set[id] {
				t.Fatalf("pane %d highlight at %d is not selected", p, pos)
			}
		}
	}
	fv.ClearSelection()
	if fv.highlightLocked(0) != nil {
		t.Fatal("cleared selection should not highlight")
	}
}

func TestScrollSynchronizedShared(t *testing.T) {
	_, fv := buildFixture(t)
	_ = fv.SelectRegion(0, 0, 19)
	fv.SetSynchronized(true)
	fv.Scroll(0, 5)
	for p := 0; p < fv.NumPanes(); p++ {
		if got := fv.scrollLocked(p); got != 5 {
			t.Fatalf("pane %d scroll = %d, want shared 5", p, got)
		}
	}
	// Clamp at selection bounds.
	fv.Scroll(0, 1000)
	if got := fv.scrollLocked(0); got != 19 {
		t.Fatalf("clamped scroll = %d", got)
	}
	fv.Scroll(0, -1000)
	if got := fv.scrollLocked(0); got != 0 {
		t.Fatalf("clamped scroll = %d", got)
	}
}

func TestScrollUnsynchronizedIndependent(t *testing.T) {
	_, fv := buildFixture(t)
	_ = fv.SelectRegion(0, 0, 19)
	fv.SetSynchronized(false)
	fv.Scroll(1, 7)
	if fv.scrollLocked(1) != 7 {
		t.Fatalf("pane 1 scroll = %d", fv.scrollLocked(1))
	}
	if fv.scrollLocked(0) != 0 || fv.scrollLocked(2) != 0 {
		t.Fatal("unsync scroll leaked to other panes")
	}
}

func TestOrderPanesBy(t *testing.T) {
	_, fv := buildFixture(t)
	fv.OrderPanesBy(map[string]float64{"gamma": 3, "alpha": 2, "beta": 1})
	order := fv.PaneOrder()
	names := []string{
		fv.Pane(order[0]).DS.Data.Name,
		fv.Pane(order[1]).DS.Data.Name,
		fv.Pane(order[2]).DS.Data.Name,
	}
	if names[0] != "gamma" || names[1] != "alpha" || names[2] != "beta" {
		t.Fatalf("order = %v", names)
	}
	// Unknown datasets sink to the end.
	fv.OrderPanesBy(map[string]float64{"beta": 1})
	order = fv.PaneOrder()
	if fv.Pane(order[0]).DS.Data.Name != "beta" {
		t.Fatalf("beta should lead: %v", order)
	}
	fv.ResetPaneOrder()
	order = fv.PaneOrder()
	if order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("reset order = %v", order)
	}
}

func TestExportGeneList(t *testing.T) {
	_, fv := buildFixture(t)
	_ = fv.SelectRegion(0, 0, 4)
	var buf bytes.Buffer
	if err := fv.ExportGeneList(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 { // header + 5 genes
		t.Fatalf("lines = %d", len(lines))
	}
	sel := fv.Selection()
	if want := fmt.Sprintf("# ForestView gene list (5 genes, %s)", sel.Source); lines[0] != want {
		t.Fatalf("header = %q, want %q", lines[0], want)
	}
	for i, id := range sel.IDs {
		if lines[i+1] != id {
			t.Fatalf("line %d = %q, want %q", i+1, lines[i+1], id)
		}
	}
	back, err := microarray.ReadGeneList(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, sel.IDs) {
		t.Fatalf("ReadGeneList of the export = %v, want %v", back, sel.IDs)
	}
	fv.ClearSelection()
	if err := fv.ExportGeneList(&buf); err == nil {
		t.Fatal("empty selection export should error")
	}
}

func TestExportMergedRoundTrip(t *testing.T) {
	_, fv := buildFixture(t)
	_ = fv.SelectRegion(0, 0, 9)
	var buf bytes.Buffer
	if err := fv.ExportMerged(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := microarray.ReadPCL(&buf, "merged")
	if err != nil {
		t.Fatal(err)
	}
	if back.NumGenes() != 10 {
		t.Fatalf("merged genes = %d", back.NumGenes())
	}
	wantCols := 12 + 10 + 8
	if back.NumExperiments() != wantCols {
		t.Fatalf("merged columns = %d, want %d", back.NumExperiments(), wantCols)
	}
	// Column names carry dataset provenance.
	if !strings.HasPrefix(back.Experiments[0], "alpha: ") {
		t.Fatalf("experiment name = %q", back.Experiments[0])
	}
	if !strings.HasPrefix(back.Experiments[12], "beta: ") {
		t.Fatalf("experiment name = %q", back.Experiments[12])
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("no datasets should error")
	}
	if _, err := New([]*ClusteredDataset{nil}); err == nil {
		t.Fatal("nil dataset should error")
	}
}
