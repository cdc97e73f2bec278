// Package core implements ForestView itself — the paper's primary
// contribution (Section 2, Figure 1): the merged dataset interface exposing
// many microarray datasets as one logical 3-D array, per-dataset panes with
// global and zoom views, synchronized and unsynchronized viewing, gene
// selection by region / annotation query / analysis result, dataset
// ordering, list and matrix export, per-dataset display preferences, and
// scene rendering that scales from a desktop framebuffer to the simulated
// display wall.
package core

import (
	"context"
	"fmt"
	"sync"

	"forestview/internal/cluster"
	"forestview/internal/microarray"
)

// ClusteredDataset pairs a dataset with its clustering trees, the unit a
// ForestView pane displays (the analogue of a CDT/GTR/ATR triple in the
// Java TreeView world).
type ClusteredDataset struct {
	// Data holds the expression matrix in its original row order.
	Data *microarray.Dataset
	// GeneTree and ArrayTree are optional dendrograms whose leaves index
	// Data rows / columns.
	GeneTree  *cluster.Tree
	ArrayTree *cluster.Tree
	// DisplayOrder maps display position -> data row. With a gene tree it
	// is the tree's leaf order (an oriented tree carries its orientation);
	// without one it is the identity.
	DisplayOrder []int
	// ArrayOrder maps display column -> data column. With an array tree it
	// is that tree's leaf order; nil otherwise (columns display in data
	// order).
	ArrayOrder []int
	// displayPos is the inverse: data row -> display position.
	displayPos []int
	// displayRows is the pyramid's level 0: row headers into the dataset,
	// arranged in display order once instead of once per tile request.
	displayRows [][]float64

	// pyrMu guards the lazily built pyramid.
	pyrMu sync.Mutex
	pyr   *Pyramid
}

// ClusterOptions configure Cluster.
type ClusterOptions struct {
	// Metric must be cluster.PearsonDist (the zero value); any other is
	// an error.
	Metric  cluster.Metric
	Linkage cluster.Linkage
	// ClusterArrays also builds the experiment (column) tree.
	ClusterArrays bool
	// OptimizeOrder orients the gene tree by the Gruvaeus-Wainer pass so
	// adjacent display rows are maximally similar across subtree
	// boundaries.
	OptimizeOrder bool
}

// Cluster runs hierarchical clustering on the dataset and returns it
// wrapped as a pane-ready ClusteredDataset. The dataset itself is not
// reordered; display order lives alongside.
func Cluster(ds *microarray.Dataset, opt ClusterOptions) (*ClusteredDataset, error) {
	return ClusterCtx(context.Background(), ds, opt)
}

// ClusterCtx is Cluster honoring cancellation: the clustering kernel polls
// ctx, so a server building a tree for a request whose client has hung up
// stops paying for it. It returns ctx's error on abandonment.
func ClusterCtx(ctx context.Context, ds *microarray.Dataset, opt ClusterOptions) (*ClusteredDataset, error) {
	if ds == nil || ds.NumGenes() == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	gt, err := cluster.HierarchicalCtx(ctx, ds.Data, opt.Metric, opt.Linkage)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("core: clustering genes of %q: %w", ds.Name, err)
	}
	if opt.OptimizeOrder {
		if gt, err = cluster.Orient(gt, ds.Data); err != nil {
			return nil, fmt.Errorf("core: orienting the gene tree of %q: %w", ds.Name, err)
		}
	}
	cd := &ClusteredDataset{Data: ds, GeneTree: gt}
	if opt.ClusterArrays {
		cols := make([][]float64, ds.NumExperiments())
		for e := range cols {
			cols[e] = ds.Column(e)
		}
		at, err := cluster.HierarchicalCtx(ctx, cols, opt.Metric, opt.Linkage)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("core: clustering arrays of %q: %w", ds.Name, err)
		}
		cd.ArrayTree = at
	}
	cd.refreshOrder()
	return cd, nil
}

// FromDataset wraps an already-ordered dataset without clustering (e.g.
// loaded from a CDT whose order is meaningful, or a SPELL result subset).
func FromDataset(ds *microarray.Dataset) (*ClusteredDataset, error) {
	if ds == nil || ds.NumGenes() == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	cd := &ClusteredDataset{Data: ds}
	cd.refreshOrder()
	return cd, nil
}

// refreshOrder sets DisplayOrder from the gene tree (or identity), its
// inverse and the level-0 row headers, once: a pane's order never changes.
func (cd *ClusteredDataset) refreshOrder() {
	n := cd.Data.NumGenes()
	if cd.GeneTree != nil && cd.GeneTree.NLeaves == n {
		cd.DisplayOrder = cd.GeneTree.LeafOrder()
	} else {
		cd.DisplayOrder = make([]int, n)
		for i := range cd.DisplayOrder {
			cd.DisplayOrder[i] = i
		}
	}
	cd.displayPos = make([]int, n)
	for pos, row := range cd.DisplayOrder {
		cd.displayPos[row] = pos
	}
	if cd.ArrayTree != nil && cd.ArrayTree.NLeaves == cd.Data.NumExperiments() {
		cd.ArrayOrder = cd.ArrayTree.LeafOrder()
	}
	cd.displayRows = make([][]float64, n)
	for pos, row := range cd.DisplayOrder {
		r := cd.Data.Row(row)
		cd.displayRows[pos] = r[:len(r):len(r)]
	}
}

// Pyramid returns the pane's tile pyramid, building it on first use. Safe
// for concurrent callers; the result is immutable.
func (cd *ClusteredDataset) Pyramid(PyramidOptions) *Pyramid {
	cd.pyrMu.Lock()
	defer cd.pyrMu.Unlock()
	if cd.pyr == nil {
		rows := cd.displayRows
		if rows == nil {
			rows = cd.copyRowHeaders(0, len(cd.DisplayOrder))
		}
		cd.pyr = buildPyramid(rows, cd.Data.NumExperiments())
	}
	return cd.pyr
}

// DisplayPos returns the display position of a data row, or -1.
func (cd *ClusteredDataset) DisplayPos(row int) int {
	if row < 0 || row >= len(cd.displayPos) {
		return -1
	}
	return cd.displayPos[row]
}

// RowsInDisplayOrder returns the expression rows arranged for display.
// The returned slices alias the dataset.
func (cd *ClusteredDataset) RowsInDisplayOrder() [][]float64 {
	return cd.RowsInDisplayRange(0, len(cd.DisplayOrder))
}

// RowsInDisplayRange returns the expression rows for display positions
// [from, to), clipped to the dataset. The returned slices alias the
// dataset and the result is a subslice of the pane's shared level-0 slab —
// no per-request copying, and (being full-capacity on both axes) append
// cannot bleed into a neighbour's view. Callers must treat it as
// read-only.
func (cd *ClusteredDataset) RowsInDisplayRange(from, to int) [][]float64 {
	if from < 0 {
		from = 0
	}
	if to > len(cd.DisplayOrder) {
		to = len(cd.DisplayOrder)
	}
	if from >= to {
		return nil
	}
	if cd.displayRows != nil {
		return cd.displayRows[from:to:to]
	}
	// Hand-constructed ClusteredDataset (no refreshOrder call yet): fall
	// back to building the headers for this request.
	return cd.copyRowHeaders(from, to)
}

func (cd *ClusteredDataset) copyRowHeaders(from, to int) [][]float64 {
	out := make([][]float64, 0, to-from)
	for _, row := range cd.DisplayOrder[from:to] {
		out = append(out, cd.Data.Row(row))
	}
	return out
}
