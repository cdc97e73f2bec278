package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"forestview/internal/tilecorr"
)

// allLinkages enumerates every supported linkage for the parity sweeps.
var allLinkages = []Linkage{AverageLinkage, CompleteLinkage, SingleLinkage}

// randomRows generates n x dim data; nanRate injects missing values.
func noisyRows(seed int64, n, dim int, nanRate float64) [][]float64 {
	r := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, dim)
		for j := range rows[i] {
			if r.Float64() < nanRate {
				rows[i][j] = math.NaN()
			} else {
				rows[i][j] = r.NormFloat64()
			}
		}
	}
	return rows
}

// requireTreeParity asserts the kernel tree matches the reference tree:
// merge heights equal within tol position by position, and identical Cut(k)
// partitions (modulo cluster label order) for every k whose cut boundary
// does not fall inside a block of tied heights — inside a tie, which of the
// equal-height merges Cut suppresses is tie-break order, and both answers
// are correct partitions of the same dendrogram. When every height is
// pairwise distinct the merge structure and leaf order must match exactly
// as well.
func requireTreeParity(t *testing.T, ref, got *Tree, tol float64, tiesBenign bool) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("kernel tree invalid: %v", err)
	}
	if got.NLeaves != ref.NLeaves || len(got.Merges) != len(ref.Merges) {
		t.Fatalf("shape: kernel %d/%d vs reference %d/%d leaves/merges",
			got.NLeaves, len(got.Merges), ref.NLeaves, len(ref.Merges))
	}
	for i := range ref.Merges {
		dh := math.Abs(ref.Merges[i].Height - got.Merges[i].Height)
		if !(dh <= tol) {
			t.Fatalf("merge %d height: reference %v vs kernel %v (|Δ|=%v > %v)",
				i, ref.Merges[i].Height, got.Merges[i].Height, dh, tol)
		}
	}
	n := ref.NLeaves
	strict := true
	for i := 1; i < len(ref.Merges); i++ {
		if ref.Merges[i].Height-ref.Merges[i-1].Height <= 2*tol {
			strict = false
			break
		}
	}
	if strict {
		for i := range ref.Merges {
			if ref.Merges[i].A != got.Merges[i].A || ref.Merges[i].B != got.Merges[i].B {
				t.Fatalf("merge %d children: reference %+v vs kernel %+v",
					i, ref.Merges[i], got.Merges[i])
			}
		}
		if !reflect.DeepEqual(ref.LeafOrder(), got.LeafOrder()) {
			t.Fatalf("leaf order differs:\nreference %v\nkernel    %v", ref.LeafOrder(), got.LeafOrder())
		}
	}
	if !strict && !tiesBenign {
		// Heights tied on input the caller has not vouched for: which of
		// the equal-height merges happens first is tie-break order, and
		// different orders yield different (equally correct) partitions.
		// Height parity above is the whole contract here.
		return
	}
	for k := 1; k <= n; k++ {
		if !strict && k > 1 && k < n {
			// Cut(k) suppresses the k-1 highest merges: sorted indices
			// n-k..n-2. Skip k when the kept/suppressed boundary is a tie.
			if ref.Merges[n-k].Height-ref.Merges[n-k-1].Height <= 2*tol {
				continue
			}
		}
		ra, err1 := ref.Cut(k)
		ga, err2 := got.Cut(k)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("Cut(%d): reference err=%v, kernel err=%v", k, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if !partitionsEqual(ra, ga) {
			t.Fatalf("Cut(%d) partitions differ:\nreference %v\nkernel    %v", k, ra, ga)
		}
	}
}

// distinctPairDistances reports whether every pairwise distance is
// separated from every other by more than 2*tol — the regime in which the
// agglomeration order is uniquely determined and exact structural parity is
// well-defined.
func distinctPairDistances(rows [][]float64, tol float64) bool {
	var ds []float64
	for i := 1; i < len(rows); i++ {
		for j := 0; j < i; j++ {
			ds = append(ds, distance(rows[i], rows[j]))
		}
	}
	sort.Float64s(ds)
	for i := 1; i < len(ds); i++ {
		if ds[i]-ds[i-1] <= 2*tol {
			return false
		}
	}
	return true
}

// partitionsEqual reports whether two flat clusterings induce the same
// partition of the leaves regardless of cluster numbering.
func partitionsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	ab := make(map[int]int)
	ba := make(map[int]int)
	for i := range a {
		if m, ok := ab[a[i]]; ok && m != b[i] {
			return false
		}
		if m, ok := ba[b[i]]; ok && m != a[i] {
			return false
		}
		ab[a[i]] = b[i]
		ba[b[i]] = a[i]
	}
	return true
}

// TestNNChainGoldenParityRandom holds the kernel to the reference tree on
// generic (distance-distinct) random data, across every linkage, with exact
// structural equality.
func TestNNChainGoldenParityRandom(t *testing.T) {
	for _, linkage := range allLinkages {
		for seed := int64(1); seed <= 3; seed++ {
			rows := noisyRows(seed*100+int64(linkage), 48, 12, 0)
			if !distinctPairDistances(rows, 1e-12) {
				continue // tied input; covered by the dedicated ties test
			}
			ref, err := ReferenceHierarchical(rows, linkage)
			if err != nil {
				t.Fatalf("%v: reference: %v", linkage, err)
			}
			got, err := HierarchicalCtx(context.Background(), rows, PearsonDist, linkage)
			if err != nil {
				t.Fatalf("%v: kernel: %v", linkage, err)
			}
			requireTreeParity(t, ref, got, 1e-12, false)
		}
	}
}

// TestNNChainGoldenParityNaN is the missing-value regression: NaN-bearing
// rows must take the pairwise-complete fallback in the kernel and yield the
// reference tree exactly — no NaN may reach the distance matrix, the merge
// heights, or the comparisons between them.
func TestNNChainGoldenParityNaN(t *testing.T) {
	for _, linkage := range allLinkages {
		rows := noisyRows(7+int64(linkage), 40, 10, 0.15)
		// An all-missing row and a constant row: the classic degenerate
		// microarray rows that must cluster last, not poison the tree.
		for j := range rows[3] {
			rows[3][j] = math.NaN()
		}
		for j := range rows[5] {
			rows[5][j] = 1.5
		}
		// The degenerate rows tie at the maximum distance, but the tied
		// merges form one transitively-connected block at the top of the
		// tree, so cuts at unambiguous boundaries stay well-defined: the
		// benign-ties mode below.
		ref, err := ReferenceHierarchical(rows, linkage)
		if err != nil {
			t.Fatalf("%v: reference: %v", linkage, err)
		}
		got, err := HierarchicalCtx(context.Background(), rows, PearsonDist, linkage)
		if err != nil {
			t.Fatalf("%v: kernel: %v", linkage, err)
		}
		for i, m := range got.Merges {
			if math.IsNaN(m.Height) {
				t.Fatalf("%v: NaN height at merge %d", linkage, i)
			}
		}
		requireTreeParity(t, ref, got, 1e-12, true)
	}
}

// TestNNChainGoldenParityTies exercises tied distances (duplicate rows,
// zero distances): heights and Cut partitions must still agree even though
// tie-break order inside a block of equal-height merges is unspecified.
func TestNNChainGoldenParityTies(t *testing.T) {
	base := [][]float64{
		{1, 2, 3, 4, 5, 6},
		{6, 4, 2, 0, -2, -4},
		{0, 3, 1, 4, 2, 5},
	}
	var rows [][]float64
	for _, b := range base {
		for c := 0; c < 3; c++ { // three exact copies of each profile
			rows = append(rows, append([]float64(nil), b...))
		}
	}
	for _, linkage := range allLinkages {
		ref, err := ReferenceHierarchical(rows, linkage)
		if err != nil {
			t.Fatal(err)
		}
		got, err := HierarchicalCtx(context.Background(), rows, PearsonDist, linkage)
		if err != nil {
			t.Fatal(err)
		}
		requireTreeParity(t, ref, got, 1e-12, true)
		// The three-copy blocks must be recovered exactly at k=3.
		assign, err := got.Cut(3)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(rows); i += 3 {
			if assign[i] != assign[i+1] || assign[i] != assign[i+2] {
				t.Fatalf("%v: duplicate block %d split: %v", linkage, i/3, assign)
			}
		}
	}
}

// TestNNChainFromDistanceParity proves the kernel needs nothing of the
// distance build: exact Pearson distances fed to nnChain as a precomputed
// matrix must reproduce ReferenceHierarchical.
func TestNNChainFromDistanceParity(t *testing.T) {
	rows := noisyRows(99, 30, 8, 0)
	d := make([][]float64, len(rows))
	for i := range d {
		d[i] = make([]float64, len(rows))
		for j := range d[i] {
			if i != j {
				d[i][j] = distance(rows[i], rows[j])
			}
		}
	}
	for _, linkage := range allLinkages {
		ref, err := ReferenceHierarchical(rows, linkage)
		if err != nil {
			t.Fatal(err)
		}
		requireTreeParity(t, ref, fromDistance(t, d, linkage), 1e-12, false)
	}
}

// fromDistance runs nnChain over a precomputed symmetric distance matrix,
// as HierarchicalCtx runs it over buildDistances' matrix.
func fromDistance(t *testing.T, d [][]float64, linkage Linkage) *Tree {
	t.Helper()
	n := len(d)
	dist, err := newSqMatrix(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d {
		for j, v := range d[i] {
			if i != j {
				dist.v[i*n+j] = v
			}
		}
	}
	tree, err := nnChain(context.Background(), dist, linkage)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestHierarchicalCtxCancel: a canceled context aborts the build with the
// context's error instead of returning a partial tree.
func TestHierarchicalCtxCancel(t *testing.T) {
	rows := noisyRows(11, 64, 8, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := HierarchicalCtx(ctx, rows, PearsonDist, AverageLinkage); err != context.Canceled {
		t.Fatalf("pre-canceled build: err = %v, want context.Canceled", err)
	}
	// A live context still produces the tree.
	tree, err := HierarchicalCtx(context.Background(), rows, PearsonDist, AverageLinkage)
	if err != nil || tree.NLeaves != 64 {
		t.Fatalf("live build: %v, %+v", err, tree)
	}

	// A cancellation inside the distance build of a 2,000-row input (500
	// blocks) stops it after at most one more poll — one block's work — per
	// worker, and its goroutines are gone when it returns.
	rows = noisyRows(12, 2000, 16, 0.02)
	before := runtime.NumGoroutine()
	mid := &pollCtx{Context: context.Background()}
	mid.after.Store(60)
	if _, err := HierarchicalCtx(mid, rows, PearsonDist, AverageLinkage); err != context.Canceled {
		t.Fatalf("build canceled at its 60th poll: err = %v, want context.Canceled", err)
	}
	// After the flip: each worker's next poll, and buildDistances' own.
	if polls, most := mid.polls.Load(), int64(60+runtime.GOMAXPROCS(0)+1); polls > most {
		t.Fatalf("%d polls, want at most %d: the build worked on after its context was canceled", polls, most)
	}
	for wait := 0; runtime.NumGoroutine() > before; wait++ {
		if wait == 100 {
			t.Fatalf("%d goroutines, %d before the build: a worker was left behind", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// pollCtx is a context that reports itself canceled from its after-th Err
// call on, and counts the calls: a cancellation that lands at a known point
// inside a build, whatever the host's speed.
type pollCtx struct {
	context.Context
	after, polls atomic.Int64
}

func (c *pollCtx) Err() error {
	if c.polls.Add(1) > c.after.Load() {
		return context.Canceled
	}
	return nil
}

// TestHierarchicalRaceHammer runs concurrent kernel builds over shared rows
// (read-only input) and checks determinism; meaningful under -race.
func TestHierarchicalRaceHammer(t *testing.T) {
	rows := noisyRows(21, 80, 10, 0.05)
	want, err := HierarchicalCtx(context.Background(), rows, PearsonDist, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 3; it++ {
				tree, err := HierarchicalCtx(context.Background(), rows, PearsonDist, AverageLinkage)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(tree, want) {
					errs <- errNondeterministic
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errNondeterministic = errorString("cluster: concurrent kernel builds diverged")

type errorString string

func (e errorString) Error() string { return string(e) }

// TestNNChainAllInfFallback reaches the chain's last resort: a cluster whose
// every remaining distance is +Inf — +Inf being also what a merged-away
// slot reads — takes the first live partner. Two finite groups and a
// singleton, separated by +Inf, must still make one valid tree under every
// linkage: the finite merges first, then the +Inf ones, and no NaN height.
func TestNNChainAllInfFallback(t *testing.T) {
	inf := math.Inf(1)
	d := [][]float64{
		{0, 1, inf, inf, inf},
		{1, 0, inf, inf, inf},
		{inf, inf, 0, 2, inf},
		{inf, inf, 2, 0, inf},
		{inf, inf, inf, inf, 0},
	}
	want := []Merge{{0, 1, 1}, {2, 3, 2}, {5, 6, inf}, {7, 4, inf}}
	for _, linkage := range allLinkages {
		tree := fromDistance(t, d, linkage)
		if err := tree.Validate(); err != nil {
			t.Fatalf("%v: %v", linkage, err)
		}
		for i, m := range tree.Merges {
			if math.IsNaN(m.Height) {
				t.Fatalf("%v: NaN height at merge %d", linkage, i)
			}
		}
		if !reflect.DeepEqual(tree.Merges, want) {
			t.Fatalf("%v: merges %v, want %v", linkage, tree.Merges, want)
		}
	}
}

// compactionRows is 720 rows of 16 columns for the chain's compaction,
// which repacks the live slots at 360, 180 and 90 of them: every pair
// shares the last four columns, so the only exact ties are the planted
// ones. Among the rows are 60 rows missing 11 of their cells, 5% missing
// cells elsewhere, 60 exact copies of other rows (ties at height 0), 20
// rows with a +Inf or -Inf cell and a tail of 100 rows of +Inf only. The
// last two kinds are at the maximum distance, 2, from every row, so the
// tree's last 120 merges are tied at 2 and run across the last compaction.
func compactionRows() [][]float64 {
	const n, dim, tail = 720, 16, 100
	rng := rand.New(rand.NewSource(45))
	rows := noisyRows(45, n, dim, 0)
	for i, row := range rows[:n-tail] {
		if i%12 == 0 {
			keep := rng.Intn(dim - 4)
			for j := range row[:dim-4] {
				if j != keep {
					row[j] = math.NaN()
				}
			}
			continue
		}
		for j := range row[:dim-4] {
			if rng.Float64() < 0.05 {
				row[j] = math.NaN()
			}
		}
	}
	for k := 0; k < 60; k++ {
		copy(rows[rng.Intn(n-tail)], rows[rng.Intn(n-tail)])
	}
	for k := 0; k < 20; k++ {
		rows[rng.Intn(n-tail)][dim-1] = math.Inf(1 - 2*(k%2))
	}
	for _, row := range rows[n-tail:] {
		for j := range row {
			row[j] = math.Inf(1)
		}
	}
	return rows
}

// TestNNChainGoldenParityCompaction holds trees built across compactions to
// the reference, under every linkage: heights within 1e-12, and the same
// Cut(k) wherever k's boundary is not a tie. (requireTreeParity's cut at
// every k costs seconds at this size.) The digest, taken as
// TestTreeBitsPaperShape's over the three kernel trees, was recorded before
// the chain compacted: compaction moved no bit of them.
func TestNNChainGoldenParityCompaction(t *testing.T) {
	want := map[string]string{
		"avx2-fma": "014864c44db859c780af62ec19ef1b3de332d9329db195b2e2ad18fc9a746add",
		"go":       "1a3753d9ff8c064c3c4f4101ce9aa3bf8b0fdd6d7506fa52f0b6ad9a9dada740",
	}
	rows := compactionRows()
	n := len(rows)
	underEachDot(t, func(t *testing.T) {
		h := sha256.New()
		var buf [24]byte
		for _, linkage := range allLinkages {
			ref, err := ReferenceHierarchical(rows, linkage)
			if err != nil {
				t.Fatal(err)
			}
			got, err := HierarchicalCtx(context.Background(), rows, PearsonDist, linkage)
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Validate(); err != nil {
				t.Fatal(err)
			}
			for i := range ref.Merges {
				if dh := math.Abs(ref.Merges[i].Height - got.Merges[i].Height); !(dh <= 1e-12) {
					t.Fatalf("%v: merge %d height: reference %v vs kernel %v", linkage, i, ref.Merges[i].Height, got.Merges[i].Height)
				}
			}
			cuts := 0
			for _, k := range []int{2, 121, 122, 130, 200, 300, 400, 500, 600, 700} {
				if ref.Merges[n-k].Height-ref.Merges[n-k-1].Height <= 2e-12 {
					continue // a tie: which merge Cut suppresses is tie order
				}
				want, err1 := ref.Cut(k)
				have, err2 := got.Cut(k)
				if err1 != nil || err2 != nil || !partitionsEqual(want, have) {
					t.Fatalf("%v: Cut(%d) differs from the reference (errs %v, %v)", linkage, k, err1, err2)
				}
				cuts++
			}
			if cuts < 5 {
				t.Fatalf("%v: only %d cuts at untied boundaries", linkage, cuts)
			}
			for _, m := range got.Merges {
				binary.LittleEndian.PutUint64(buf[0:], uint64(m.A))
				binary.LittleEndian.PutUint64(buf[8:], uint64(m.B))
				binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(m.Height))
				h.Write(buf[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[tilecorr.KernelName()] {
			t.Fatalf("kernel trees digest %s, want %s: some merge moved a bit", got, want[tilecorr.KernelName()])
		}
	})
}
