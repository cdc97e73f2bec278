package core

import (
	"math"
	"sync"
	"testing"

	"forestview/internal/cluster"
	"forestview/internal/oracle"
	"forestview/internal/synth"
)

// pyramidFixture builds a clustered pane big enough to carry several
// levels, with NaN holes punched in to exercise the observation counting.
func pyramidFixture(t *testing.T) *ClusteredDataset {
	t.Helper()
	u := synth.NewUniverse(600, 12, 41)
	ds := u.Generate(synth.DatasetSpec{Name: "pyr", NumExperiments: 14, Seed: 43})
	for g := 0; g < ds.NumGenes(); g += 7 {
		ds.Data[g][g%ds.NumExperiments()] = math.NaN()
	}
	// One display row that is entirely missing: its aggregate contribution
	// must vanish, and a fully-missing block must yield NaN.
	for c := range ds.Data[5] {
		ds.Data[5][c] = math.NaN()
	}
	cd, err := Cluster(ds, ClusterOptions{Metric: cluster.PearsonDist, Linkage: cluster.AverageLinkage})
	if err != nil {
		t.Fatal(err)
	}
	return cd
}

func TestNumPyramidLevels(t *testing.T) {
	cases := []struct{ rows, want int }{
		{0, 1}, {1, 1}, {63, 1}, {64, 1}, {127, 1}, {128, 2},
		{256, 3}, {600, 4}, {1024, 5}, {20000, 9},
	}
	for _, c := range cases {
		if got := NumPyramidLevels(c.rows); got != c.want {
			t.Errorf("NumPyramidLevels(%d) = %d, want %d", c.rows, got, c.want)
		}
	}
}

// referenceLevel is oracle.PyramidLevel over cd's rows in display order.
func referenceLevel(cd *ClusteredDataset, k int) [][]float64 {
	return oracle.PyramidLevel(cd.copyRowHeaders(0, len(cd.DisplayOrder)), cd.Data.NumExperiments(), k)
}

// TestPyramidParityFloat64 is the golden-parity oracle: every level of the
// built pyramid must match the naive direct aggregation within 1e-12.
func TestPyramidParityFloat64(t *testing.T) {
	cd := pyramidFixture(t)
	p := cd.Pyramid(PyramidOptions{})
	if len(p.levels) != NumPyramidLevels(len(cd.DisplayOrder)) {
		t.Fatalf("levels = %d, want %d", len(p.levels), NumPyramidLevels(len(cd.DisplayOrder)))
	}
	for k := 0; k < len(p.levels); k++ {
		slab := p.Level(k)
		ref := referenceLevel(cd, k)
		if slab.NRows != len(ref) {
			t.Fatalf("level %d: %d rows, want %d", k, slab.NRows, len(ref))
		}
		for i, refRow := range ref {
			for c, want := range refRow {
				got := slab.F64[i][c]
				if math.IsNaN(want) != math.IsNaN(got) {
					t.Fatalf("level %d row %d col %d: got %v, want %v", k, i, c, got, want)
				}
				if !math.IsNaN(want) && math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
					t.Fatalf("level %d row %d col %d: got %v, want %v", k, i, c, got, want)
				}
			}
		}
	}
}

// TestPyramidRaceHammer drives concurrent Pyramid builds and reads under
// -race.
func TestPyramidRaceHammer(t *testing.T) {
	cd := pyramidFixture(t)
	ref := referenceLevel(cd, 2)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				p := cd.Pyramid(PyramidOptions{})
				slab := p.Level(2)
				if slab.NRows != len(ref) {
					t.Errorf("worker %d: %d rows, want %d", w, slab.NRows, len(ref))
					return
				}
				i := iter % len(ref)
				for c, want := range ref[i] {
					got := slab.F64[i][c]
					if math.IsNaN(want) != math.IsNaN(got) {
						t.Errorf("worker %d row %d col %d: got %v, want %v", w, i, c, got, want)
						return
					}
					if !math.IsNaN(want) && math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
						t.Errorf("worker %d row %d col %d: got %v, want %v", w, i, c, got, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestRowsInDisplayRangeNoAliasing is the regression test for the shared
// level-0 slab serve: overlapping windows handed to concurrent tiles must
// stay consistent, and appending to one caller's view must not bleed a
// row header into another's (the classic full-capacity subslice hazard).
func TestRowsInDisplayRangeNoAliasing(t *testing.T) {
	cd := pyramidFixture(t)
	a := cd.RowsInDisplayRange(0, 10)
	b := cd.RowsInDisplayRange(5, 15)
	// The three-index subslice has cap == len: this append must
	// reallocate instead of stomping b's first header.
	grown := append(a, []float64{1e9})
	if grown[10][0] != 1e9 {
		t.Fatal("append did not land in the grown copy")
	}
	for i := 0; i < 10; i++ {
		if &b[i][0] != &cd.Data.Row(cd.DisplayOrder[5+i])[0] {
			t.Fatalf("window row %d does not alias the dataset row", i)
		}
	}
	// Concurrent overlapping windows under -race: read-only serving from
	// the shared slab must be data-race free and value-stable.
	want := cd.Data.Row(cd.DisplayOrder[7])[0]
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 100; iter++ {
				rows := cd.RowsInDisplayRange(w, 20+w)
				got := rows[7-w][0]
				if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Errorf("worker %d iter %d: display row 7 = %v, want %v", w, iter, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
