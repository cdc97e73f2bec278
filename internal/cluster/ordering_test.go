package cluster

import (
	"context"
	"math"
	"math/rand"
	"slices"
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

// referenceOptimizeLeafOrder is the orientation pass as a list of leaves a
// node: each merge concatenates its children's lists, either one reversed
// where that brings the facing boundary leaves closer. It copies every
// block at every merge, so a chain costs n²; Orient must give its order.
func referenceOptimizeLeafOrder(t *Tree, rows [][]float64) []int {
	blocks := make([][]int, t.NLeaves+len(t.Merges))
	for leaf := 0; leaf < t.NLeaves; leaf++ {
		blocks[leaf] = []int{leaf}
	}
	dist := func(a, b int) float64 { return distance(rows[a], rows[b]) }
	for i, m := range t.Merges {
		a, b := blocks[m.A], blocks[m.B]
		aL, aR := a[0], a[len(a)-1]
		bL, bR := b[0], b[len(b)-1]
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
		left, right := slices.Clone(a), slices.Clone(b)
		if best.flipA {
			slices.Reverse(left)
		}
		if best.flipB {
			slices.Reverse(right)
		}
		blocks[t.NLeaves+i] = append(left, right...)
	}
	return blocks[t.Root()]
}

// checkOrient orients tree over rows and fails unless the result's
// LeafOrder is the reference pass's, each merge joins the same pair at the
// same height, the result is a valid tree, and tree is as it was. It
// returns the oriented tree.
func checkOrient(t *testing.T, name string, tree *Tree, rows [][]float64) *Tree {
	t.Helper()
	before := &Tree{NLeaves: tree.NLeaves, Merges: slices.Clone(tree.Merges)}
	got, err := Orient(tree, rows)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if want := referenceOptimizeLeafOrder(tree, rows); !slices.Equal(got.LeafOrder(), want) {
		t.Fatalf("%s: LeafOrder %v, reference %v", name, got.LeafOrder(), want)
	}
	if got.NLeaves != tree.NLeaves || len(got.Merges) != len(tree.Merges) {
		t.Fatalf("%s: %d leaves, %d merges; want %d, %d", name, got.NLeaves, len(got.Merges), tree.NLeaves, len(tree.Merges))
	}
	for i, m := range got.Merges {
		w := tree.Merges[i]
		if min(m.A, m.B) != min(w.A, w.B) || max(m.A, m.B) != max(w.A, w.B) ||
			math.Float64bits(m.Height) != math.Float64bits(w.Height) {
			t.Fatalf("%s: merge %d = %+v, want %+v up to its children's order", name, i, m, w)
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: oriented tree: %v", name, err)
	}
	if !slices.Equal(tree.Merges, before.Merges) {
		t.Fatalf("%s: Orient changed its input tree", name)
	}
	return got
}

// shapedTree returns a tree over n >= 1 leaves with rising heights: a
// chain (the last cluster and the next leaf), or each merge joining two of
// the clusters left, pick(k) choosing among k.
func shapedTree(n int, chain bool, pick func(int) int) *Tree {
	t := &Tree{NLeaves: n}
	roots := make([]int, n)
	for i := range roots {
		roots[i] = i
	}
	for k := 0; k+1 < n; k++ {
		i, j := 0, 1
		if !chain {
			i, j = pick(len(roots)), pick(len(roots)-1)
			if j >= i {
				j++
			}
		}
		t.Merges = append(t.Merges, Merge{A: roots[i], B: roots[j], Height: float64(k + 1)})
		roots[i] = n + k
		roots = slices.Delete(roots, j, j+1)
	}
	return t
}

// TestOrientMatchesReference holds Orient to the block-list pass on the
// kernel's trees under every linkage, chains and random shapes, tied,
// constant and all-missing rows, and trees of one and two leaves. The
// kernel's trees stay certified once oriented.
func TestOrientMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	tied := randomRows(62, 6, 8) // 120 rows, each one of six
	for len(tied) < 120 {
		tied = append(tied, tied[rng.Intn(6)])
	}
	constant := make([][]float64, 50)
	for i := range constant {
		constant[i] = []float64{3, 3, 3, 3}
	}
	missing := noisyRows(63, 80, 10, 0.2)
	for i := 0; i < len(missing); i += 7 {
		for j := range missing[i] {
			missing[i][j] = math.NaN()
		}
	}
	for _, c := range []struct {
		name string
		rows [][]float64
	}{
		{"random 40x10", randomRows(64, 40, 10)},
		{"random 300x12", randomRows(65, 300, 12)},
		{"tied rows", tied},
		{"constant rows", constant},
		{"missing rows", missing},
		{"two leaves", randomRows(66, 2, 5)},
		{"one leaf", randomRows(67, 1, 5)},
	} {
		for _, linkage := range allLinkages {
			tree, err := HierarchicalCtx(context.Background(), c.rows, PearsonDist, linkage)
			if err != nil {
				t.Fatal(err)
			}
			oriented := checkOrient(t, c.name+" "+linkage.String(), tree, c.rows)
			checkTree(t, c.rows, linkage, oriented)
		}
		n := len(c.rows)
		checkOrient(t, c.name+" chain", shapedTree(n, true, rng.Intn), c.rows)
		checkOrient(t, c.name+" random shape", shapedTree(n, false, rng.Intn), c.rows)
	}
}

// FuzzOrient holds Orient to the block-list pass on up to 48 rows of up
// to 8 columns. The input is the row count, the column count and a flag
// byte (bit 0: the kernel's tree, linkage from bits 1-2, else bit 3 a
// chain or a random shape; bit 4: values from three levels, so rows tie),
// then bytes cycled: each row's first byte makes it constant (0 mod 11) or
// all missing (1 mod 11); a value is (b-128)/32, 255 missing; then the
// random shape's picks. The kernel's trees stay certified once oriented.
// The seeds are in testdata/fuzz/FuzzOrient.
func FuzzOrient(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n, dim, flags := 1+int(data[0]%48), 1+int(data[1]%8), data[2]
		vals, k := data[3:], 0
		next := func() byte {
			k++
			if len(vals) == 0 {
				return 128
			}
			return vals[(k-1)%len(vals)]
		}
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, dim)
			kind := next()
			for j := range rows[i] {
				b := next()
				switch {
				case kind%11 == 0:
					b = kind
				case kind%11 == 1:
					b = 255
				case flags&0x10 != 0 && b != 255:
					b = 96 + 32*(b%3)
				}
				if b == 255 {
					rows[i][j] = math.NaN()
				} else {
					rows[i][j] = (float64(b) - 128) / 32
				}
			}
		}
		if flags&1 == 0 {
			tree := shapedTree(n, flags&8 != 0, func(k int) int { return int(next()) % k })
			checkOrient(t, "shaped", tree, rows)
			return
		}
		linkage := allLinkages[int(flags>>1&3)%len(allLinkages)]
		tree, err := HierarchicalCtx(context.Background(), rows, PearsonDist, linkage)
		if err != nil {
			t.Fatal(err)
		}
		checkTree(t, rows, linkage, checkOrient(t, "kernel", tree, rows))
	})
}

func TestOptimizeLeafOrderIsPermutation(t *testing.T) {
	rows := randomRows(3, 25, 8)
	tree, err := HierarchicalCtx(context.Background(), rows, PearsonDist, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	oriented, err := Orient(tree, rows)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, len(rows))
	for _, o := range oriented.LeafOrder() {
		if o < 0 || o >= len(rows) || seen[o] {
			t.Fatalf("not a permutation: %v", oriented.LeafOrder())
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
		oriented, err := Orient(tree, rows)
		if err != nil {
			t.Fatal(err)
		}
		optQ := OrderQuality(rows, oriented.LeafOrder())
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
	// The oriented order must keep each subtree of the input tree
	// contiguous: for every merge, its leaves form one contiguous block.
	rows := randomRows(7, 20, 6)
	tree, _ := HierarchicalCtx(context.Background(), rows, PearsonDist, CompleteLinkage)
	oriented, err := Orient(tree, rows)
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, len(rows))
	for i, leaf := range oriented.LeafOrder() {
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
	if _, err := Orient(nil, nil); err == nil {
		t.Fatal("nil tree should error")
	}
	single := &Tree{NLeaves: 1}
	oriented, err := Orient(single, [][]float64{{1, 2}})
	if err != nil || !slices.Equal(oriented.LeafOrder(), []int{0}) {
		t.Fatalf("single leaf: %+v, %v", oriented, err)
	}
	tree := &Tree{NLeaves: 3, Merges: []Merge{{A: 0, B: 1, Height: 1}, {A: 3, B: 2, Height: 2}}}
	if _, err := Orient(tree, [][]float64{{1}}); err == nil {
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
		oriented, err := Orient(tree, rows)
		if err != nil {
			return false
		}
		order := oriented.LeafOrder()
		if len(order) != n {
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
