package cluster

import (
	"fmt"
	"math"
)

// A dendrogram fixes which leaves are siblings but not the left/right
// orientation of each merge: every internal node can be flipped, giving
// 2^(n-1) equivalent orders. TreeView-family displays look dramatically
// better when adjacent rows are similar across subtree boundaries, so this
// file implements the Gruvaeus-Wainer style greedy orientation pass: at
// each merge, pick the orientation of the two child blocks that minimizes
// the distance between the facing boundary leaves. The ablation bench
// (AblationLeafOrdering) quantifies the improvement.

// OptimizeLeafOrder returns a leaf order for t with per-merge orientations
// chosen to minimize boundary Pearson distances. rows must be the leaf data
// (rows[i] for leaf i).
func OptimizeLeafOrder(t *Tree, rows [][]float64) ([]int, error) {
	if t == nil || t.NLeaves == 0 {
		return nil, fmt.Errorf("cluster: empty tree")
	}
	if len(rows) < t.NLeaves {
		return nil, fmt.Errorf("cluster: %d rows for %d leaves", len(rows), t.NLeaves)
	}
	if t.NLeaves == 1 {
		return []int{0}, nil
	}
	// block[i] is the ordered leaf list of node i (leaves then merges).
	blocks := make([][]int, t.NLeaves+len(t.Merges))
	for leaf := 0; leaf < t.NLeaves; leaf++ {
		blocks[leaf] = []int{leaf}
	}
	dist := func(a, b int) float64 { return distance(rows[a], rows[b]) }
	for i, m := range t.Merges {
		a, b := blocks[m.A], blocks[m.B]
		// Boundary leaves of each child block in its current orientation.
		aL, aR := a[0], a[len(a)-1]
		bL, bR := b[0], b[len(b)-1]
		// Four orientations; cost is the distance across the junction.
		type option struct {
			flipA, flipB bool
			cost         float64
		}
		options := []option{
			{false, false, dist(aR, bL)},
			{true, false, dist(aL, bL)},
			{false, true, dist(aR, bR)},
			{true, true, dist(aL, bR)},
		}
		best := options[0]
		for _, o := range options[1:] {
			if o.cost < best.cost {
				best = o
			}
		}
		left := a
		if best.flipA {
			left = reversed(a)
		}
		right := b
		if best.flipB {
			right = reversed(b)
		}
		merged := make([]int, 0, len(left)+len(right))
		merged = append(merged, left...)
		merged = append(merged, right...)
		blocks[t.NLeaves+i] = merged
	}
	return blocks[t.Root()], nil
}

func reversed(xs []int) []int {
	out := make([]int, len(xs))
	for i, v := range xs {
		out[len(xs)-1-i] = v
	}
	return out
}

// OrderQuality scores a display order: the mean similarity, 1 - Pearson
// distance, between adjacent rows (an undefined correlation counts as -1).
// Higher is better; it is the objective the orientation pass improves.
func OrderQuality(rows [][]float64, order []int) float64 {
	if len(order) < 2 {
		return math.NaN()
	}
	s := 0.0
	for i := 1; i < len(order); i++ {
		s += 1 - distance(rows[order[i-1]], rows[order[i]])
	}
	return s / float64(len(order)-1)
}
