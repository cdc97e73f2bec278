package core

import (
	"fmt"
	"math"

	"forestview/internal/microarray"
)

// Merged is the paper's "merged dataset interface": all loaded datasets
// presented as one logical three-dimensional array indexed by
// (dataset, gene, experiment), over the union of gene identities. Analysis
// routines operate on this interface without caring which file a value came
// from.
type Merged struct {
	datasets []*microarray.Dataset
	// geneIDs is the unified gene universe, first-seen order.
	geneIDs []string
	geneIdx map[string]int
	// row[d][g] is the row of unified gene g in dataset d, or -1.
	row [][]int
}

// NewMerged builds the merged interface over the given datasets.
func NewMerged(dss []*microarray.Dataset) (*Merged, error) {
	if len(dss) == 0 {
		return nil, fmt.Errorf("core: no datasets to merge")
	}
	m := &Merged{datasets: dss, geneIdx: make(map[string]int)}
	for _, ds := range dss {
		for _, g := range ds.Genes {
			if _, ok := m.geneIdx[g.ID]; !ok {
				m.geneIdx[g.ID] = len(m.geneIDs)
				m.geneIDs = append(m.geneIDs, g.ID)
			}
		}
	}
	m.row = make([][]int, len(dss))
	for d, ds := range dss {
		m.row[d] = make([]int, len(m.geneIDs))
		for i := range m.row[d] {
			m.row[d][i] = -1
		}
		for r, g := range ds.Genes {
			m.row[d][m.geneIdx[g.ID]] = r
		}
	}
	return m, nil
}

// NumDatasets returns the dataset count.
func (m *Merged) NumDatasets() int { return len(m.datasets) }

// NumGenes returns the size of the unified gene universe.
func (m *Merged) NumGenes() int { return len(m.geneIDs) }

// NumExperiments returns the column count of dataset d (0 if out of range).
func (m *Merged) NumExperiments(d int) int {
	if d < 0 || d >= len(m.datasets) {
		return 0
	}
	return m.datasets[d].NumExperiments()
}

// Value is the 3-D accessor: dataset d, unified gene g, experiment e.
// Missing combinations (gene absent from the dataset, or anything out of
// range) return NaN.
func (m *Merged) Value(d, g, e int) float64 {
	if d < 0 || d >= len(m.datasets) || g < 0 || g >= len(m.geneIDs) {
		return math.NaN()
	}
	r := m.row[d][g]
	if r < 0 {
		return math.NaN()
	}
	return m.datasets[d].Value(r, e)
}

// ExportPCL writes the merged matrix for the given genes (nil = all unified
// genes) as a single PCL: columns are the concatenation of every dataset's
// experiments, prefixed with the dataset name, exactly what "Export Merged
// Dataset" in Figure 1 produces.
func (m *Merged) ExportPCL(genes []string) (*microarray.Dataset, error) {
	if genes == nil {
		genes = m.geneIDs
	}
	var exps []string
	for _, ds := range m.datasets {
		for _, e := range ds.Experiments {
			exps = append(exps, ds.Name+": "+e)
		}
	}
	out := microarray.NewDataset("merged", exps)
	for _, id := range genes {
		g, ok := m.geneIdx[id]
		if !ok {
			continue
		}
		vals := make([]float64, 0, len(exps))
		var meta microarray.Gene
		meta.ID = id
		for d, ds := range m.datasets {
			r := m.row[d][g]
			for e := 0; e < ds.NumExperiments(); e++ {
				if r < 0 {
					vals = append(vals, microarray.Missing)
				} else {
					vals = append(vals, ds.Value(r, e))
				}
			}
			if r >= 0 && meta.Name == "" {
				meta.Name = ds.Genes[r].Name
				meta.Annotation = ds.Genes[r].Annotation
			}
		}
		if err := out.AddGene(meta, vals); err != nil {
			return nil, fmt.Errorf("core: exporting merged dataset: %w", err)
		}
	}
	return out, nil
}
