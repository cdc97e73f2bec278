package cluster

import (
	"fmt"
	"math"
	"slices"
)

// A dendrogram fixes which leaves are siblings but not the left/right
// orientation of each merge: every internal node can be flipped, giving
// 2^(n-1) equivalent orders. TreeView-family displays look dramatically
// better when adjacent rows are similar across subtree boundaries, so this
// file implements the Gruvaeus-Wainer style greedy orientation pass: at
// each merge, pick the orientation of the two child blocks that minimizes
// the distance between the facing boundary leaves. The ablation bench
// (AblationLeafOrdering) quantifies the improvement.

// Orient returns a copy of t whose LeafOrder has each merge's two child
// blocks oriented to minimize the Pearson distance across their junction.
// Only the children of some merges trade places: heights and merge pairs
// are t's, and t is not changed. rows must be the leaf data (rows[i] for
// leaf i).
func Orient(t *Tree, rows [][]float64) (*Tree, error) {
	if t == nil || t.NLeaves == 0 {
		return nil, fmt.Errorf("cluster: empty tree")
	}
	if len(rows) < t.NLeaves {
		return nil, fmt.Errorf("cluster: %d rows for %d leaves", len(rows), t.NLeaves)
	}
	n := t.NLeaves
	out := &Tree{NLeaves: n, Merges: slices.Clone(t.Merges)}
	// ends[k] is node k's first and last leaf in the orientation the
	// greedy pass gave it; flip[i] says it reversed merge i's A and B
	// blocks.
	ends := make([][2]int, n+len(t.Merges))
	for leaf := range n {
		ends[leaf] = [2]int{leaf, leaf}
	}
	flip := make([][2]bool, len(t.Merges))
	dist := func(a, b int) float64 { return distance(rows[a], rows[b]) }
	for i, m := range t.Merges {
		a, b := ends[m.A], ends[m.B]
		// Four orientations, the first of the cheapest junctions kept.
		best := dist(a[1], b[0])
		for _, o := range [][2]bool{{true, false}, {false, true}, {true, true}} {
			x, y := a[1], b[0]
			if o[0] {
				x = a[0]
			}
			if o[1] {
				y = b[1]
			}
			if c := dist(x, y); c < best {
				best, flip[i] = c, o
			}
		}
		first, last := a[0], b[1]
		if flip[i][0] {
			first = a[1]
		}
		if flip[i][1] {
			last = b[0]
		}
		ends[n+i] = [2]int{first, last}
	}
	// A reversed block is every merge under it reversed, its children
	// swapped: walk the merges root first, handing each child whether its
	// own block reads backwards.
	rev := make([]bool, n+len(t.Merges))
	for i := len(out.Merges) - 1; i >= 0; i-- {
		m := &out.Merges[i]
		r := rev[n+i]
		rev[m.A], rev[m.B] = r != flip[i][0], r != flip[i][1]
		if r {
			m.A, m.B = m.B, m.A
		}
	}
	return out, nil
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
