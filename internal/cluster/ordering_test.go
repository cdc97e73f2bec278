package cluster

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomRows(seed int64, n, dim int) [][]float64 {
	r := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, dim)
		for j := range rows[i] {
			rows[i][j] = r.NormFloat64()
		}
	}
	return rows
}

func TestOptimizeLeafOrderIsPermutation(t *testing.T) {
	rows := randomRows(3, 25, 8)
	tree, err := HierarchicalCtx(context.Background(), rows, PearsonDist, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	order, err := OptimizeLeafOrder(tree, rows)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, len(rows))
	for _, o := range order {
		if o < 0 || o >= len(rows) || seen[o] {
			t.Fatalf("not a permutation: %v", order)
		}
		seen[o] = true
	}
}

func TestOptimizeLeafOrderImprovesQuality(t *testing.T) {
	// Averaged over several seeds, the oriented order must beat or match
	// the naive DFS order — on every single seed it must never be worse
	// than naive by more than float noise at the junctions it controls.
	better, worse := 0, 0
	for seed := int64(0); seed < 10; seed++ {
		rows := randomRows(seed, 40, 10)
		tree, err := HierarchicalCtx(context.Background(), rows, PearsonDist, AverageLinkage)
		if err != nil {
			t.Fatal(err)
		}
		naive := OrderQuality(rows, tree.LeafOrder())
		opt, err := OptimizeLeafOrder(tree, rows)
		if err != nil {
			t.Fatal(err)
		}
		optQ := OrderQuality(rows, opt)
		if optQ > naive+1e-9 {
			better++
		} else if optQ < naive-1e-9 {
			worse++
		}
	}
	if better <= worse {
		t.Fatalf("orientation pass improved %d seeds, worsened %d", better, worse)
	}
}

func TestOptimizeLeafOrderPreservesTreeStructure(t *testing.T) {
	// The oriented order must keep each subtree contiguous: for every
	// merge, its leaves form one contiguous block.
	rows := randomRows(7, 20, 6)
	tree, _ := HierarchicalCtx(context.Background(), rows, PearsonDist, CompleteLinkage)
	order, err := OptimizeLeafOrder(tree, rows)
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, len(rows))
	for i, leaf := range order {
		pos[leaf] = i
	}
	// Collect each internal node's leaf set.
	leavesOf := make([][]int, tree.NLeaves+len(tree.Merges))
	for i := 0; i < tree.NLeaves; i++ {
		leavesOf[i] = []int{i}
	}
	for i, m := range tree.Merges {
		leavesOf[tree.NLeaves+i] = append(append([]int{}, leavesOf[m.A]...), leavesOf[m.B]...)
	}
	for i := range tree.Merges {
		leaves := leavesOf[tree.NLeaves+i]
		lo, hi := len(rows), -1
		for _, l := range leaves {
			if pos[l] < lo {
				lo = pos[l]
			}
			if pos[l] > hi {
				hi = pos[l]
			}
		}
		if hi-lo+1 != len(leaves) {
			t.Fatalf("merge %d leaves not contiguous in oriented order", i)
		}
	}
}

func TestOptimizeLeafOrderEdgeCases(t *testing.T) {
	if _, err := OptimizeLeafOrder(nil, nil); err == nil {
		t.Fatal("nil tree should error")
	}
	single := &Tree{NLeaves: 1}
	order, err := OptimizeLeafOrder(single, [][]float64{{1, 2}})
	if err != nil || len(order) != 1 {
		t.Fatalf("single leaf: %v, %v", order, err)
	}
	tree := &Tree{NLeaves: 3, Merges: []Merge{{A: 0, B: 1, Height: 1}, {A: 3, B: 2, Height: 2}}}
	if _, err := OptimizeLeafOrder(tree, [][]float64{{1}}); err == nil {
		t.Fatal("too few rows should error")
	}
}

// TestOrderQuality: two tight pairs, each anti-correlated with the other,
// score 1/3 kept apart (junctions +1, -1, +1) and -1 interleaved (three
// -1 junctions), so the worse order scores strictly lower.
func TestOrderQuality(t *testing.T) {
	rows := [][]float64{
		{1, 2, 3}, {2, 4, 6}, // pair A: r = 1
		{3, 2, 1}, {6, 4, 2}, // pair B: r = 1, and r = -1 against A
	}
	apart := OrderQuality(rows, []int{0, 1, 2, 3})
	interleaved := OrderQuality(rows, []int{0, 2, 1, 3})
	if apart != 1.0/3 || interleaved != -1 {
		t.Fatalf("pairs apart score %v, interleaved %v; want 1/3 and -1", apart, interleaved)
	}
	if !(interleaved < apart) {
		t.Fatalf("interleaved pairs score %v, not below %v apart", interleaved, apart)
	}
	same := [][]float64{{1, 2, 3}, {2, 4, 6}, {3, 6, 9}}
	if q := OrderQuality(same, []int{0, 1, 2}); q < 0.999 {
		t.Fatalf("colinear rows quality = %v", q)
	}
	if q := OrderQuality(rows, []int{0}); !isNaN(q) {
		t.Fatal("single-row quality should be NaN")
	}
}

func isNaN(f float64) bool { return f != f }

// Property: orientation never breaks permutation-ness and never reduces
// quality below the worst single-junction bound, for random trees.
func TestQuickOptimizeLeafOrder(t *testing.T) {
	f := func(seed int64, nBits uint8) bool {
		n := int(nBits%20) + 2
		rows := randomRows(seed, n, 5)
		tree, err := HierarchicalCtx(context.Background(), rows, PearsonDist, AverageLinkage)
		if err != nil {
			return false
		}
		order, err := OptimizeLeafOrder(tree, rows)
		if err != nil || len(order) != n {
			return false
		}
		seen := make([]bool, n)
		for _, o := range order {
			if o < 0 || o >= n || seen[o] {
				return false
			}
			seen[o] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
