// Package microarray implements the expression-data substrate of the
// ForestView reproduction: an in-memory model of a gene-expression dataset
// (genes × experiments with missing values), the Eisen-laboratory
// tab-delimited file formats (PCL and CDT) that the paper's tool chain
// (Cluster 3.0, Java TreeView) exchanges, and the row/column transforms
// typically applied before clustering and display.
package microarray

import (
	"fmt"
	"math"
	"strings"
)

// Missing marks an unmeasured expression value. All package code treats any
// NaN as missing.
var Missing = math.NaN()

// Gene carries the per-row identity metadata of a dataset: the systematic
// ID (e.g. "YAL001C"), the common name (e.g. "TFC3"), and a free-text
// annotation used by the search interface.
type Gene struct {
	ID         string
	Name       string
	Annotation string
}

// Dataset is a single microarray dataset: a dense genes × experiments
// matrix of log-ratio expression values plus identity metadata. Missing
// measurements are NaN. The zero value is an empty dataset ready for
// incremental construction via AddGene.
//
// A Dataset with Data but no Genes is a bare matrix: it counts its rows,
// clusters and renders, finds no gene by ID and fails Validate. The daemon
// keeps its lazily clustered panes in this form.
type Dataset struct {
	// Name identifies the dataset (typically the source file or study).
	Name string
	// Genes holds per-row metadata, parallel to Data.
	Genes []Gene
	// Experiments holds the column labels.
	Experiments []string
	// Data[g][e] is the expression of gene g in experiment e. The rows of
	// a parsed dataset share one backing array, each with cap == len.
	Data [][]float64
	// GWeights and EWeights are the optional Cluster 3.0 row and column
	// weights (all 1 when absent from the source file).
	GWeights []float64
	EWeights []float64

	idIndex map[string]int
}

// NewDataset returns an empty dataset with the given name and experiment
// labels.
func NewDataset(name string, experiments []string) *Dataset {
	ds := &Dataset{
		Name:        name,
		Experiments: append([]string(nil), experiments...),
		EWeights:    make([]float64, len(experiments)),
		idIndex:     make(map[string]int),
	}
	for i := range ds.EWeights {
		ds.EWeights[i] = 1
	}
	return ds
}

// AddGene appends a gene row. The values slice must have exactly one entry
// per experiment; it is copied.
func (d *Dataset) AddGene(g Gene, values []float64) error {
	if len(values) != len(d.Experiments) {
		return fmt.Errorf("microarray: gene %q has %d values, dataset has %d experiments",
			g.ID, len(values), len(d.Experiments))
	}
	if d.idIndex == nil {
		d.idIndex = make(map[string]int)
	}
	if _, dup := d.idIndex[g.ID]; dup {
		return fmt.Errorf("microarray: duplicate gene ID %q", g.ID)
	}
	d.idIndex[g.ID] = len(d.Genes)
	d.Genes = append(d.Genes, g)
	d.Data = append(d.Data, append([]float64(nil), values...))
	d.GWeights = append(d.GWeights, 1)
	return nil
}

// NumGenes returns the number of gene rows, counted in Data so that a
// dataset without a gene table has them too.
func (d *Dataset) NumGenes() int { return len(d.Data) }

// NumExperiments returns the number of experiment columns.
func (d *Dataset) NumExperiments() int { return len(d.Experiments) }

// Value returns the expression of gene g in experiment e, or NaN when out
// of range.
func (d *Dataset) Value(g, e int) float64 {
	if g < 0 || g >= len(d.Data) || e < 0 || e >= len(d.Experiments) {
		return Missing
	}
	return d.Data[g][e]
}

// Row returns the expression vector of gene g. The returned slice aliases
// the dataset; callers must not modify it unless they own the dataset.
func (d *Dataset) Row(g int) []float64 {
	if g < 0 || g >= len(d.Data) {
		return nil
	}
	return d.Data[g]
}

// Column returns a copy of the values of experiment e across all genes.
func (d *Dataset) Column(e int) []float64 {
	if e < 0 || e >= len(d.Experiments) {
		return nil
	}
	col := make([]float64, len(d.Data))
	for g := range d.Data {
		col[g] = d.Data[g][e]
	}
	return col
}

// GeneIndex returns the row of the gene with the given systematic ID and
// whether it exists. Lookup is case-insensitive, matching the behaviour
// biologists expect from TreeView's search box.
func (d *Dataset) GeneIndex(id string) (int, bool) {
	if i, ok := d.idIndex[id]; ok {
		return i, true
	}
	// Fall back to a case-insensitive scan (IDs are conventionally upper
	// case but user input often is not).
	up := strings.ToUpper(id)
	if i, ok := d.idIndex[up]; ok {
		return i, true
	}
	for i, g := range d.Genes {
		if strings.EqualFold(g.ID, id) || strings.EqualFold(g.Name, id) {
			return i, true
		}
	}
	return 0, false
}

// GeneIDs returns the systematic IDs of all genes in row order.
func (d *Dataset) GeneIDs() []string {
	ids := make([]string, len(d.Genes))
	for i, g := range d.Genes {
		ids[i] = g.ID
	}
	return ids
}

// Validate checks internal consistency: parallel slice lengths, rectangular
// data, and unique gene IDs.
func (d *Dataset) Validate() error {
	if len(d.Data) != len(d.Genes) {
		return fmt.Errorf("microarray: %d data rows vs %d genes", len(d.Data), len(d.Genes))
	}
	if len(d.GWeights) != 0 && len(d.GWeights) != len(d.Genes) {
		return fmt.Errorf("microarray: %d gene weights vs %d genes", len(d.GWeights), len(d.Genes))
	}
	if len(d.EWeights) != 0 && len(d.EWeights) != len(d.Experiments) {
		return fmt.Errorf("microarray: %d experiment weights vs %d experiments",
			len(d.EWeights), len(d.Experiments))
	}
	seen := make(map[string]bool, len(d.Genes))
	for i, row := range d.Data {
		if len(row) != len(d.Experiments) {
			return fmt.Errorf("microarray: row %d has %d values, want %d",
				i, len(row), len(d.Experiments))
		}
		id := d.Genes[i].ID
		if seen[id] {
			return fmt.Errorf("microarray: duplicate gene ID %q", id)
		}
		seen[id] = true
	}
	return nil
}

// Subset returns a new dataset containing only the given gene rows, in the
// given order. Out-of-range indices are skipped. Experiment columns and
// weights are shared semantics but copied storage.
func (d *Dataset) Subset(name string, geneRows []int) *Dataset {
	out := NewDataset(name, d.Experiments)
	copy(out.EWeights, d.EWeights)
	for _, g := range geneRows {
		if g < 0 || g >= len(d.Genes) {
			continue
		}
		// Ignore the duplicate error: subsets of a valid dataset can only
		// collide when the caller passes the same row twice, in which case
		// keeping the first occurrence is the sensible behaviour.
		_ = out.AddGene(d.Genes[g], d.Data[g])
	}
	for i, g := range geneRows {
		if g >= 0 && g < len(d.GWeights) && i < len(out.GWeights) {
			out.GWeights[i] = d.GWeights[g]
		}
	}
	return out
}

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	out := NewDataset(d.Name, d.Experiments)
	out.EWeights = append([]float64(nil), d.EWeights...)
	for i, g := range d.Genes {
		_ = out.AddGene(g, d.Data[i])
	}
	copy(out.GWeights, d.GWeights)
	return out
}
