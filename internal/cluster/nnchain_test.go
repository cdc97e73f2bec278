package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
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

// checkTree holds tree to the certificate of a greedy agglomeration of rows
// under linkage (certify); an error fails the test.
func checkTree(t *testing.T, rows [][]float64, linkage Linkage, tree *Tree) {
	t.Helper()
	if err := certify(rows, linkage, tree); err != nil {
		t.Fatalf("%v: %v", linkage, err)
	}
}

// certify replays a valid tree's merges, in their recorded (height) order,
// on a Lance-Williams matrix of its own, built from the exact distance, and
// requires of each that it join two live clusters, that their distance be
// the least between any two live clusters, and that its height be that
// distance, both within 1e-12. Every way of breaking a tie passes; a merge
// of a pair that is not closest, or a height that is not its pair's
// distance, is the error. Each row's nearest live slot is cached, so a
// replay costs about n² where a full scan a merge would cost n³.
func certify(rows [][]float64, linkage Linkage, tree *Tree) error {
	if err := tree.Validate(); err != nil {
		return err
	}
	n, inf := len(rows), math.Inf(1)
	if tree.NLeaves != n {
		return fmt.Errorf("%d leaves for %d rows", tree.NLeaves, n)
	}
	d := make([]float64, n*n) // row-major; +Inf on the diagonal and in dead columns
	for i := range rows {
		d[i*n+i] = inf
		for j := 0; j < i; j++ {
			d[i*n+j] = distance(rows[i], rows[j])
			d[j*n+i] = d[i*n+j]
		}
	}
	size, near := make([]int, n), make([]int, n) // 0 once dead; nearest live slot
	nearest := func(i int) {
		row := d[i*n : (i+1)*n]
		near[i] = 0
		for j, v := range row {
			if v < row[near[i]] {
				near[i] = j
			}
		}
	}
	slot := make([]int, n+len(tree.Merges)) // node -> its slot, -1 once merged
	for i := range rows {
		slot[i], size[i] = i, 1
		nearest(i)
	}
	for s, m := range tree.Merges {
		a, b := slot[m.A], slot[m.B]
		if a < 0 || b < 0 {
			return fmt.Errorf("merge %d joins %d and %d, not both live", s, m.A, m.B)
		}
		least := inf
		for i, sz := range size {
			if sz > 0 {
				least = min(least, d[i*n+near[i]])
			}
		}
		h := d[a*n+b]
		if !(h-least <= 1e-12) {
			return fmt.Errorf("merge %d joins %d and %d, %v apart, but the closest live clusters are %v apart", s, m.A, m.B, h, least)
		}
		if !(math.Abs(m.Height-h) <= 1e-12) {
			return fmt.Errorf("merge %d records height %v, but %d and %d are %v apart", s, m.Height, m.A, m.B, h)
		}
		// The merged cluster takes slot a; slot b dies.
		for k, sz := range size {
			if sz == 0 || k == a || k == b {
				continue
			}
			da, db := d[a*n+k], d[b*n+k]
			v := min(da, db)
			switch linkage {
			case AverageLinkage:
				v = (float64(size[a])*da + float64(size[b])*db) / float64(size[a]+size[b])
			case CompleteLinkage:
				v = max(da, db)
			}
			d[a*n+k], d[k*n+a], d[k*n+b] = v, v, inf
		}
		d[a*n+b] = inf
		size[a], size[b] = size[a]+size[b], 0
		slot[m.A], slot[m.B], slot[n+s] = -1, -1, a
		nearest(a)
		for k, sz := range size {
			if sz == 0 || k == a {
				continue
			}
			if near[k] == a || near[k] == b {
				nearest(k)
			} else if d[k*n+a] < d[k*n+near[k]] {
				near[k] = a
			}
		}
	}
	return nil
}

// TestNNChainGoldenParityRandom certifies the kernel's trees of random
// complete rows, across every linkage.
func TestNNChainGoldenParityRandom(t *testing.T) {
	for _, linkage := range allLinkages {
		for seed := int64(1); seed <= 3; seed++ {
			rows := noisyRows(seed*100+int64(linkage), 48, 12, 0)
			got, err := HierarchicalCtx(context.Background(), rows, PearsonDist, linkage)
			if err != nil {
				t.Fatalf("%v: kernel: %v", linkage, err)
			}
			checkTree(t, rows, linkage, got)
		}
	}
}

// TestNNChainGoldenParityNaN is the missing-value regression: NaN-bearing
// rows must take the pairwise-complete fallback in the kernel and yield a
// certified tree — no NaN may reach the distance matrix, the merge heights,
// or the comparisons between them.
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
		got, err := HierarchicalCtx(context.Background(), rows, PearsonDist, linkage)
		if err != nil {
			t.Fatalf("%v: kernel: %v", linkage, err)
		}
		for i, m := range got.Merges {
			if math.IsNaN(m.Height) {
				t.Fatalf("%v: NaN height at merge %d", linkage, i)
			}
		}
		checkTree(t, rows, linkage, got)
	}
}

// TestNNChainGoldenParityTies exercises tied distances (duplicate rows,
// zero distances): whichever tied pair goes first, the tree is certified
// and the three copies of each profile come back at Cut(3).
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
		got, err := HierarchicalCtx(context.Background(), rows, PearsonDist, linkage)
		if err != nil {
			t.Fatal(err)
		}
		checkTree(t, rows, linkage, got)
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
// matrix must yield a certified tree.
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
		checkTree(t, rows, linkage, fromDistance(t, d, linkage))
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

// TestNNChainGoldenParityCompaction certifies trees built across
// compactions, under every linkage. The digest, taken as
// TestTreeBitsPaperShape's over the three kernel trees, was recorded before
// the chain compacted: compaction moved no bit of them.
func TestNNChainGoldenParityCompaction(t *testing.T) {
	want := map[string]string{
		"avx2-fma": "014864c44db859c780af62ec19ef1b3de332d9329db195b2e2ad18fc9a746add",
		"avx512":   "014864c44db859c780af62ec19ef1b3de332d9329db195b2e2ad18fc9a746add",
		"go":       "1a3753d9ff8c064c3c4f4101ce9aa3bf8b0fdd6d7506fa52f0b6ad9a9dada740",
	}
	rows := compactionRows()
	underEachDot(t, func(t *testing.T) {
		h := sha256.New()
		var buf [24]byte
		for _, linkage := range allLinkages {
			got, err := HierarchicalCtx(context.Background(), rows, PearsonDist, linkage)
			if err != nil {
				t.Fatal(err)
			}
			checkTree(t, rows, linkage, got)
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

// tiedRows is compactionRows with its 60 sparse rows thinned to 4 or 5
// observed cells anywhere among the 16. Two such rows mostly share two cells
// or fewer, which puts them at exactly 0 or 2, and a row can sit at 0
// from two rows that sit at 2 from each other: exact ties that are not
// transitive, which the chain and a greedy closest-pair pass break
// differently, their heights parting by far more than 1e-12 above the tie.
func tiedRows() [][]float64 {
	rows := compactionRows()
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < len(rows)-100; i += 12 {
		row := rows[i]
		for j := range row {
			row[j] = math.NaN()
		}
		for _, j := range rng.Perm(len(row))[:4+rng.Intn(2)] {
			row[j] = rng.NormFloat64()
		}
	}
	return rows
}

// TestNNChainCertifiesNonTransitiveTies: however the chain breaks the
// non-transitive ties of tiedRows, every linkage's tree is certified.
func TestNNChainCertifiesNonTransitiveTies(t *testing.T) {
	rows := tiedRows()
	for _, linkage := range allLinkages {
		got, err := HierarchicalCtx(context.Background(), rows, PearsonDist, linkage)
		if err != nil {
			t.Fatal(err)
		}
		checkTree(t, rows, linkage, got)
	}
}

// TestTreeCertificateRejects: certify refuses a copy of a certified kernel
// tree with one merge of a pair that is not closest, and one with a height
// moved by 1e4 ulp, though both copies are valid dendrograms.
func TestTreeCertificateRejects(t *testing.T) {
	rows := noisyRows(47, 40, 10, 0)
	tree, err := HierarchicalCtx(context.Background(), rows, PearsonDist, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	checkTree(t, rows, AverageLinkage, tree)
	refuse := func(what, want string, alter func(ms []Merge)) {
		t.Helper()
		bad := &Tree{NLeaves: tree.NLeaves, Merges: slices.Clone(tree.Merges)}
		alter(bad.Merges)
		if err := bad.Validate(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if err := certify(rows, AverageLinkage, bad); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: certify = %v, want an error saying %q", what, err, want)
		}
	}
	// The first merge joins the closest two leaves, a and b. Leaf far, the
	// farthest from a, takes b's place there, and b takes far's.
	refuse("a pair that is not closest", "closest", func(ms []Merge) {
		a, b, far := ms[0].A, ms[0].B, 0
		for c := range rows {
			if distance(rows[a], rows[c]) > distance(rows[a], rows[far]) {
				far = c
			}
		}
		for i := range ms {
			for _, c := range []*int{&ms[i].A, &ms[i].B} {
				switch *c {
				case b:
					*c = far
				case far:
					*c = b
				}
			}
		}
	})
	// At the root's height, about 1, 1e4 ulp is over 1e-12.
	refuse("a height 1e4 ulp off", "records height", func(ms []Merge) {
		root := &ms[len(ms)-1]
		if root.Height < 0.5 {
			t.Fatalf("root height %v: 1e4 ulp of it is under 1e-12", root.Height)
		}
		root.Height = math.Float64frombits(math.Float64bits(root.Height) + 1e4)
	})
}
