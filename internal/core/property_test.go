package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"forestview/internal/cluster"
	"forestview/internal/microarray"
	"forestview/internal/synth"
)

// Property: under synchronized viewing, all panes agree on zoom row count
// and gene identity at every row, for arbitrary selections and pane
// configurations.
func TestQuickSyncAlignment(t *testing.T) {
	u := synth.NewUniverse(120, 8, 131)
	// Three datasets with partially disjoint gene subsets to exercise
	// placeholder rows.
	full := u.Generate(synth.DatasetSpec{Name: "full", NumExperiments: 10, Seed: 137})
	firstHalf := make([]int, 60)
	secondHalf := make([]int, 80)
	for i := range firstHalf {
		firstHalf[i] = i
	}
	for i := range secondHalf {
		secondHalf[i] = 40 + i
	}
	dss := []*ClusteredDataset{}
	for _, raw := range []struct {
		name string
		rows []int
	}{
		{"full", nil},
		{"first", firstHalf},
		{"second", secondHalf},
	} {
		ds := full
		if raw.rows != nil {
			ds = full.Subset(raw.name, raw.rows)
		}
		cd, err := Cluster(ds, ClusterOptions{
			Metric: cluster.PearsonDist, Linkage: cluster.AverageLinkage})
		if err != nil {
			t.Fatal(err)
		}
		dss = append(dss, cd)
	}
	fv, err := New(dss)
	if err != nil {
		t.Fatal(err)
	}

	f := func(seed int64, nBits uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nBits%20) + 1
		var ids []string
		for i := 0; i < n; i++ {
			ids = append(ids, u.Genes[r.Intn(len(u.Genes))].ID)
		}
		fv.SelectList(ids, "property")
		fv.SetSynchronized(true)
		ref := fv.ZoomContent(0)
		for p := 1; p < fv.NumPanes(); p++ {
			zc := fv.ZoomContent(p)
			if len(zc) != len(ref) {
				return false
			}
			for i := range zc {
				if zc[i].GeneID != ref[i].GeneID {
					return false
				}
				// A non-placeholder row must actually hold that gene.
				if zc[i].Row >= 0 {
					cd := fv.Pane(p).DS
					if cd.Data.Genes[zc[i].Row].ID != zc[i].GeneID {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: merged 3-D access equals direct dataset access for every
// (dataset, gene, experiment) combination, on random partial-overlap
// compendia.
func TestQuickMergedConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		u := synth.NewUniverse(40, 5, seed)
		full := u.Generate(synth.DatasetSpec{Name: "d0", NumExperiments: 6, Seed: seed + 1})
		// Random subset dataset.
		var rows []int
		for i := 0; i < full.NumGenes(); i++ {
			if r.Float64() < 0.6 {
				rows = append(rows, i)
			}
		}
		if len(rows) == 0 {
			rows = []int{0}
		}
		sub := full.Subset("d1", rows)
		m, err := NewMerged([]*microarray.Dataset{full, sub})
		if err != nil {
			return false
		}
		for g := 0; g < m.NumGenes(); g++ {
			id := m.geneIDs[g]
			for d, ds := range []*microarray.Dataset{full, sub} {
				row, ok := ds.GeneIndex(id)
				for e := 0; e < ds.NumExperiments(); e++ {
					got := m.Value(d, g, e)
					if !ok {
						if !isNaNf(got) {
							return false
						}
						continue
					}
					want := ds.Value(row, e)
					if isNaNf(got) != isNaNf(want) {
						return false
					}
					if !isNaNf(got) && got != want {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func isNaNf(f float64) bool { return f != f }
