// Package cluster implements the clustering substrate of the ForestView
// reproduction: agglomerative hierarchical clustering with Cluster 3.0's
// default gene similarity (centered Pearson correlation) and its three
// linkages (whose CDT/GTR/ATR output Java TreeView — and therefore
// ForestView — renders), tree manipulation (leaf ordering, cutting) and the
// GTR/ATR tree file formats.
package cluster

import (
	"errors"
	"fmt"
	"math"

	"forestview/internal/stats"
)

// Metric names the pairwise dissimilarity between expression rows. Pearson
// distance is the only one the kernel computes; the type stays so that a
// configuration can say which one it means.
type Metric int

// PearsonDist is 1 - centered Pearson correlation, Cluster 3.0's default
// gene similarity.
const PearsonDist Metric = 0

// String returns the Cluster 3.0-style name of the metric.
func (m Metric) String() string {
	if m == PearsonDist {
		return "correlation (centered)"
	}
	return fmt.Sprintf("Metric(%d)", int(m))
}

// distance is the Pearson distance between two expression vectors over the
// cells both observe. An undefined correlation (a constant or all-missing
// vector, fewer than two shared cells) yields the maximum distance, 2, so
// degenerate rows cluster last rather than poisoning the tree.
func distance(a, b []float64) float64 {
	r := stats.Pearson(a, b)
	if math.IsNaN(r) {
		return 2
	}
	return 1 - r
}

// Linkage selects how the distance between merged clusters is defined.
type Linkage int

const (
	// AverageLinkage (UPGMA) is Cluster 3.0's default.
	AverageLinkage Linkage = iota
	// CompleteLinkage uses the maximum pairwise distance.
	CompleteLinkage
	// SingleLinkage uses the minimum pairwise distance.
	SingleLinkage
)

// String names the linkage.
func (l Linkage) String() string {
	switch l {
	case AverageLinkage:
		return "average"
	case CompleteLinkage:
		return "complete"
	case SingleLinkage:
		return "single"
	default:
		return fmt.Sprintf("Linkage(%d)", int(l))
	}
}

// Merge records one agglomeration step. A and B index either leaves
// (0..NLeaves-1) or earlier merges (NLeaves+i for Merges[i]). Height is the
// inter-cluster distance at which the merge happened.
type Merge struct {
	A, B   int
	Height float64
}

// Tree is a dendrogram over NLeaves items: exactly NLeaves-1 merges, the
// last of which is the root.
type Tree struct {
	NLeaves int
	Merges  []Merge
}

// Root returns the index of the root node (NLeaves + len(Merges) - 1), or
// 0 for single-leaf trees.
func (t *Tree) Root() int {
	if len(t.Merges) == 0 {
		return 0
	}
	return t.NLeaves + len(t.Merges) - 1
}

// Validate checks that the tree is a well-formed dendrogram: the right
// number of merges, children referencing only leaves or earlier merges, and
// every node used exactly once as a child (except the root).
func (t *Tree) Validate() error {
	if t.NLeaves <= 0 {
		return errors.New("cluster: tree has no leaves")
	}
	if len(t.Merges) != t.NLeaves-1 {
		return fmt.Errorf("cluster: %d merges for %d leaves, want %d",
			len(t.Merges), t.NLeaves, t.NLeaves-1)
	}
	used := make([]bool, t.NLeaves+len(t.Merges))
	for i, m := range t.Merges {
		limit := t.NLeaves + i
		for _, c := range []int{m.A, m.B} {
			if c < 0 || c >= limit {
				return fmt.Errorf("cluster: merge %d references node %d (limit %d)", i, c, limit)
			}
			if used[c] {
				return fmt.Errorf("cluster: node %d used as child twice", c)
			}
			used[c] = true
		}
	}
	for n := 0; n < t.NLeaves+len(t.Merges)-1; n++ {
		if !used[n] {
			return fmt.Errorf("cluster: node %d never merged", n)
		}
	}
	return nil
}

// LeafOrder returns the left-to-right order of leaves produced by a
// depth-first traversal, the order in which the clustered heatmap draws its
// rows.
func (t *Tree) LeafOrder() []int {
	if t.NLeaves == 1 {
		return []int{0}
	}
	order := make([]int, 0, t.NLeaves)
	// Iterative DFS to stay safe on degenerate (chain-shaped) trees of
	// paper-scale datasets.
	stack := []int{t.Root()}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n < t.NLeaves {
			order = append(order, n)
			continue
		}
		m := t.Merges[n-t.NLeaves]
		// Push right first so left is visited first.
		stack = append(stack, m.B, m.A)
	}
	return order
}

// LeavesUnder returns the leaves of the subtree rooted at node (a leaf
// index < NLeaves, or NLeaves+i for merge i), in leaf-order within the
// subtree. This backs ForestView's "select a tree node" interaction.
func (t *Tree) LeavesUnder(node int) []int {
	if node < 0 || node >= t.NLeaves+len(t.Merges) {
		return nil
	}
	if node < t.NLeaves {
		return []int{node}
	}
	var out []int
	stack := []int{node}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n < t.NLeaves {
			out = append(out, n)
			continue
		}
		m := t.Merges[n-t.NLeaves]
		stack = append(stack, m.B, m.A)
	}
	return out
}

// Cut returns a flat clustering with k clusters by cutting the dendrogram
// below its k-1 highest merges. The result maps each leaf to a cluster ID
// in 0..k-1, numbered by first appearance in leaf order.
func (t *Tree) Cut(k int) ([]int, error) {
	if k < 1 || k > t.NLeaves {
		return nil, fmt.Errorf("cluster: cannot cut %d leaves into %d clusters", t.NLeaves, k)
	}
	// The merges are produced in nondecreasing height order for the
	// algorithms here, but user-loaded trees may not be; cut by suppressing
	// the k-1 highest merges globally.
	type hm struct {
		idx int
		h   float64
	}
	hs := make([]hm, len(t.Merges))
	for i, m := range t.Merges {
		hs[i] = hm{i, m.Height}
	}
	// Partial selection of the k-1 largest heights.
	suppressed := make(map[int]bool, k-1)
	for c := 0; c < k-1; c++ {
		best := -1
		for i, e := range hs {
			if suppressed[e.idx] {
				continue
			}
			if best == -1 || e.h > hs[best].h || (e.h == hs[best].h && e.idx > hs[best].idx) {
				best = i
			}
		}
		suppressed[hs[best].idx] = true
	}
	// Union the surviving merges.
	parent := make([]int, t.NLeaves+len(t.Merges))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i, m := range t.Merges {
		node := t.NLeaves + i
		if suppressed[i] {
			continue
		}
		ra, rb := find(m.A), find(m.B)
		parent[ra] = node
		parent[rb] = node
	}
	// Number clusters by first appearance in leaf order.
	ids := make(map[int]int)
	out := make([]int, t.NLeaves)
	for _, leaf := range t.LeafOrder() {
		root := find(leaf)
		id, ok := ids[root]
		if !ok {
			id = len(ids)
			ids[root] = id
		}
		out[leaf] = id
	}
	if len(ids) != k {
		return nil, fmt.Errorf("cluster: cut produced %d clusters, want %d", len(ids), k)
	}
	return out, nil
}
