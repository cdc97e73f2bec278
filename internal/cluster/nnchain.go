package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"forestview/internal/tilecorr"
)

// This file is the clustering kernel, O(n²) in two stages.
//
// Stage 1 builds the square distance matrix in parallel; the workers write
// disjoint rows below its diagonal, then mirror them above it — no locks.
// It runs on the correlation kernel SPELL scans with (internal/tilecorr):
// the rows are tiled once, z-scored and zero-filled, and every block of four
// rows meets every tile at or below its diagonal in one kernel call — dot
// products plus a correction per missing cell, no means, no variances, no
// NaN checks in the O(n²) loop, whether the rows are complete or not
// (tileDistances). A
// pair the one-pass arithmetic cannot settle to the exact distance's bits
// where they matter falls back to the exact Pearson distance on the raw
// rows, so missing-value semantics — and exact ties — are those of distance.
//
// Stage 2 agglomerates by nearest-neighbor chain (Müllner 2011): grow a
// chain slot → nearest neighbour → ... until two clusters are each other's
// nearest neighbour, merge them, and continue from the remaining chain,
// reading and writing rows only. For the reducible Lance-Williams updates
// used here (single, complete, average) a merge never invalidates the rest
// of the chain, every reciprocal pair found this way is a merge of the
// greedy globally-closest-pair algorithm, and merge heights are monotone —
// so the discovered merges sorted by height are a greedy merge sequence,
// up to how its ties break, in O(n²) total time.

// HierarchicalCtx builds a dendrogram over the rows by Pearson distance
// (metric must be PearsonDist) and the given linkage: a parallel
// distance-matrix build followed by exact nearest-neighbor-chain
// agglomeration. The tree is a greedy one: replayed in order, each merge
// joins two clusters at the least distance between any two live clusters
// and records that distance as its height (the certificate nnchain_test.go
// checks every tree against); where that least distance is tied, any of
// the tied pairs may go first. Rows must all have one length — the PCL/CDT
// readers and Dataset.Validate give no other kind — and any other metric or
// ragged rows are an error before any matrix is built. Both the distance
// build and the agglomeration poll ctx and abandon the computation with
// ctx's error once it is done. The query daemon threads request contexts
// through here so a disconnected client stops paying for its tree build.
func HierarchicalCtx(ctx context.Context, rows [][]float64, metric Metric, linkage Linkage) (*Tree, error) {
	n := len(rows)
	if n == 0 {
		return nil, errors.New("cluster: no rows")
	}
	if metric != PearsonDist {
		return nil, fmt.Errorf("cluster: %v: Pearson distance is the only metric", metric)
	}
	for i, row := range rows {
		if len(row) != len(rows[0]) {
			return nil, fmt.Errorf("cluster: row %d has %d cells, row 0 has %d", i, len(row), len(rows[0]))
		}
	}
	if n == 1 {
		return &Tree{NLeaves: 1}, nil
	}
	squares.begin()
	dist, err := buildDistances(ctx, rows)
	defer squares.end(dist)
	if err != nil {
		return nil, err
	}
	return nnChain(ctx, dist, linkage)
}

// sqMatrix is a full row-major n×n distance matrix, +Inf on the diagonal.
type sqMatrix struct {
	n int
	v []float64
}

// newSqMatrix takes a square from the free list when one fits, else makes
// one. A reused square is not zeroed: the diagonal here, stage 1 and mirror
// write every one of its n² cells.
func newSqMatrix(n int) (*sqMatrix, error) {
	cells, err := squareCells(n)
	if err != nil {
		return nil, err
	}
	v := squares.take(cells)
	if v == nil {
		v = make([]float64, cells)
	}
	m := &sqMatrix{n: n, v: v}
	for i := 0; i < n; i++ {
		m.v[i*n+i] = math.Inf(1)
	}
	return m, nil
}

// squares is the free list of distance matrices: the cells of builds that
// have ended, finished or canceled, for the next build to reuse instead of
// allocating — and faulting in — 8n² fresh bytes (288 MB at 6,000 rows). A
// square is kept only while another build runs, and at most one per running
// build, and a build takes the smallest that fits. So builds of one size on
// k slots never hold more than k squares between them, and the last build
// to end leaves none behind: the live heap after a warm is what it was
// without the list.
var squares freeSquares

type freeSquares struct {
	mu      sync.Mutex
	running int         // builds between begin and end
	free    [][]float64 // at most running of them, full capacity
}

// begin counts a build in; from now on take may hand it a square.
func (f *freeSquares) begin() {
	f.mu.Lock()
	f.running++
	f.mu.Unlock()
}

// take hands out the smallest free square of at least cells cells, cut to
// cells, or nil.
func (f *freeSquares) take(cells int) []float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	best := -1
	for i, v := range f.free {
		if len(v) >= cells && (best < 0 || len(v) < len(f.free[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	v := f.free[best]
	f.free = slices.Delete(f.free, best, best+1)
	return v[:cells]
}

// end counts a build out and hands back its square (nil when it made
// none). The list keeps its largest squares, as many as builds still run.
func (f *freeSquares) end(m *sqMatrix) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.running--
	if m != nil {
		f.free = append(f.free, m.v[:cap(m.v)])
	}
	if len(f.free) > f.running {
		slices.SortFunc(f.free, func(a, b []float64) int { return len(b) - len(a) })
		clear(f.free[f.running:])
		f.free = f.free[:f.running]
	}
}

// mirror is worker w's share of copying the lower triangle above the
// diagonal, in 64×64 tiles so that the rows read and the rows written both
// stay in cache. Worker w takes the tile rows w, w+workers, ….
func (m *sqMatrix) mirror(w, workers int) {
	const side = 64
	n := m.n
	for r0 := w * side; r0 < n; r0 += workers * side {
		for c0 := r0; c0 < n; c0 += side {
			for r := r0; r < min(r0+side, n); r++ {
				for c := max(c0, r+1); c < min(c0+side, n); c++ {
					m.v[r*n+c] = m.v[c*n+r]
				}
			}
		}
	}
}

// squareCells is n², or an error when it overflows I (46,341 rows do on
// 32-bit platforms); generic so that a test can try both widths anywhere.
func squareCells[I ~int | ~int32 | ~int64](n I) (I, error) {
	if c := n * n; n == 0 || c/n == n {
		return c, nil
	}
	return 0, fmt.Errorf("cluster: %d rows need more distance cells than an int can index", n)
}

// compactMin is the narrowest rows nnChain still compacts: narrower rows
// are a few cache lines each, and the chain has less than compactMin²
// cells left to scan.
const compactMin = 128

// streamIn reads one cell of each 64-byte line of row, in order, so that
// the hardware prefetcher streams the row in ahead of a replay that would
// otherwise wait on memory at each of its scattered cells, loads and
// stores alike. The sum is returned only so that the reads are kept.
//
//go:noinline
func streamIn(row []float64) float64 {
	s := 0.0
	for j := 0; j < len(row); j += 8 {
		s += row[j]
	}
	return s
}

// lwStep is one merge of the chain's log: slot b joined slot a, with
// average linkage's weights for the two.
type lwStep struct {
	a, b   int
	wa, wb float64
}

// combineRows merges src into dst cell by cell by Lance-Williams, dst[j]
// being the merged cluster's part a's distance to cluster j and src[j] its
// part b's: one straight loop a linkage.
func (s *lwStep) combineRows(linkage Linkage, dst, src []float64) {
	src = src[:len(dst)]
	switch linkage {
	case AverageLinkage:
		for j, db := range src {
			dst[j] = s.wa*dst[j] + s.wb*db
		}
	case CompleteLinkage:
		for j, db := range src {
			dst[j] = max(dst[j], db) // math.Max's answer, NaN and ±0 included
		}
	default:
		for j, db := range src {
			dst[j] = min(dst[j], db)
		}
	}
}

// replay applies steps to row, in order: column a of each takes the
// combined value and column b dies. One straight loop a linkage, each the
// arithmetic of combineRows.
func replay(linkage Linkage, row []float64, steps []lwStep) {
	inf := math.Inf(1)
	switch linkage {
	case AverageLinkage:
		for _, s := range steps {
			row[s.a] = s.wa*row[s.a] + s.wb*row[s.b]
			row[s.b] = inf
		}
	case CompleteLinkage:
		for _, s := range steps {
			row[s.a] = max(row[s.a], row[s.b])
			row[s.b] = inf
		}
	default:
		for _, s := range steps {
			row[s.a] = min(row[s.a], row[s.b])
			row[s.b] = inf
		}
	}
}

// buildDistances fills the square distance matrix in parallel: the workers
// compute the pairs below the diagonal, then mirror that triangle above it.
// A pair's value depends on the two rows and their indices only — never on
// the worker count or on what else the process is building — so a tree is
// bit-stable on a host.
//
// A canceled build returns ctx's error with the matrix it was filling, for
// its caller to hand back to the free list.
func buildDistances(ctx context.Context, rows [][]float64) (*sqMatrix, error) {
	n := len(rows)
	dist, err := newSqMatrix(n)
	if err != nil {
		return nil, err
	}
	tiles := tilecorr.New(rows, len(rows[0]))
	fill := func(w, workers int) { tileDistances(ctx, dist, tiles, rows, w, workers) }
	workers := max(1, min(runtime.GOMAXPROCS(0), n-1))
	for _, stage := range []func(w, workers int){fill, dist.mirror} {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				stage(w, workers)
			}(w)
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return dist, err
		}
	}
	return dist, nil
}

// tileDistances is worker w's share of the Pearson distance build: the
// blocks of tilecorr.BlockRows rows numbered w, w+workers, … (a block's cost
// grows with its number, so dealing them round-robin balances the workers).
// A block is gathered once and met with every tile holding a row below one
// of its own in one kernel call, DistanceRange, which writes each pair's
// distance straight into the block's rows of the matrix, which no other
// worker writes.
//
// The tiles it stops at hold lanes the kernel does not vouch for — two
// shared cells, a joint subset nearly constant, |r| within 1e-12 of 1 — and
// exactTile writes them as the exact distance on the raw rows, bit for bit.
// Under complete linkage that is structural, not cosmetic: two rows sharing
// two cells correlate at exactly ±1, a distance of exactly 0 or 2, and a
// one-pass value an ulp off it changes which pair merges at height 0 and
// with it the tree above (DESIGN.md §3b).
func tileDistances(ctx context.Context, dist *sqMatrix, tiles *tilecorr.Tiles, rows [][]float64, w, workers int) {
	const blockRows = tilecorr.BlockRows
	n, dim := len(rows), tiles.NExp()
	q := tilecorr.Query{
		Rows: make([]tilecorr.Row, 0, blockRows),
		Buf:  make([]float64, tilecorr.QueryCells(blockRows, dim)),
	}
	for i0 := w * blockRows; i0 < n && ctx.Err() == nil; i0 += workers * blockRows {
		q.Rows = q.Rows[:0]
		for i := i0; i < min(i0+blockRows, n); i++ {
			q.Rows = append(q.Rows, tiles.Row(i))
		}
		clear(q.Buf)
		tiles.Gather(&q)
		for t := 0; ; {
			stop, next := tiles.DistanceRange(dist.v, n, &q, t)
			if stop < 0 {
				break
			}
			exactTile(dist, tiles, rows, &q, stop)
			t = next
		}
	}
}

// exactTile writes the block q's distances to the rows of tile t below its
// own by Dot and FinishBlock, and the lanes the finish flags or leaves NaN
// (fewer than two shared cells: the maximum) by distance on the raw rows.
// The diagonal's self-pair, flagged at r = 1, is never read.
func exactTile(dist *sqMatrix, tiles *tilecorr.Tiles, rows [][]float64, q *tilecorr.Query, t int) {
	const tileRows = tilecorr.TileRows
	var dots, rs [tilecorr.BlockRows * tileRows]float64
	n, base := dist.n, t*tileRows
	z, _, _ := q.Block(0, tiles.NExp())
	tilecorr.Dot(&dots, tiles.Tile(t), z, tiles.NExp())
	flagged := tiles.FinishBlock(&rs, &dots, t, q, 0)
	for k, qr := range q.Rows {
		i := qr.Index
		live := min(tileRows, i-base) // the tile's rows below row i
		if live <= 0 {
			continue
		}
		below := uint8(flagged>>(tileRows*k)) & (1<<live - 1)
		out := dist.v[i*n+base:]
		for j, r := range rs[k*tileRows : k*tileRows+live] {
			if below>>j&1 != 0 || math.IsNaN(r) {
				out[j] = distance(rows[i], rows[base+j])
			} else {
				out[j] = 1 - r
			}
		}
	}
}

// nnChain agglomerates the square matrix by nearest-neighbor chain and
// relabels the discovered merges into Tree's node-numbering
// convention (merges in nondecreasing height order, clusters represented by
// their smallest leaf). It consumes dist as scratch space.
//
// A merge of slots a < b rewrites row a as the Lance-Williams combination
// of rows a and b and appends the step to a log. Every other row owes the
// step two cells (column a takes the combined value, column b dies) and
// pays them when the chain next reads it: catchUp replays the entries the
// row has not applied yet, ver records how far it got. So no column is ever
// walked, every scan is one contiguous row, and dead slots stay +Inf
// tombstones (as the diagonal is), which no strict comparison picks.
//
// Once the live slots fall to half the width w of the rows, and while w is
// at least compactMin, compact packs them into the leading m×m cells, so
// that scans, replays and merges stop paying for the dead.
func nnChain(ctx context.Context, dist *sqMatrix, linkage Linkage) (*Tree, error) {
	type rawMerge struct {
		a, b int // original cluster representatives (smallest leaf), a < b
		h    float64
	}
	n, inf := dist.n, math.Inf(1)
	w, live := n, n // the rows' width, the slots alive
	raw := make([]rawMerge, 0, n-1)
	log := make([]lwStep, 0, n-1)
	ver := make([]int, n) // row i has applied log[:ver[i]]
	catchUp := func(i int) []float64 {
		row := dist.v[i*w : (i+1)*w]
		if len(log)-ver[i] > w/64 { // a step per eight of its cache lines
			streamIn(row)
		}
		replay(linkage, row, log[ver[i]:])
		ver[i] = len(log)
		return row
	}
	size := make([]int, n) // 0 once the slot is dead
	orig := make([]int, n) // slot -> smallest original leaf of its cluster
	for i := range size {
		size[i], orig[i] = 1, i
	}
	first := 0 // smallest possibly-live slot, advanced lazily
	chain := make([]int, 0, 64)
	keep := make([]int, 0, n) // compact's live slots, ascending
	compact := func() {
		// The live slots keep their order, so scan order, the tie rule and
		// which of a pair is a stay as they were. Row k of width live is
		// written over cells no later row still needs (k·live + live ≤ s·w
		// for the next live slot s > k), and within a row each cell moves
		// down or stays, so ascending copies are safe in place.
		keep = keep[:0]
		for s := first; s < w; s++ {
			if size[s] != 0 {
				keep = append(keep, s)
			}
		}
		for k, s := range keep {
			row, out := catchUp(s), dist.v[k*live:(k+1)*live]
			for c, j := range keep {
				out[c] = row[j]
			}
			size[k], orig[k] = size[s], orig[s]
		}
		for i, s := range chain {
			chain[i], _ = slices.BinarySearch(keep, s)
		}
		w, first = live, 0
		size, orig, ver = size[:w], orig[:w], ver[:w]
		clear(ver)
		log = log[:0]
	}
	for len(raw) < n-1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if live <= w/2 && w >= compactMin {
			compact()
		}
		if len(chain) == 0 {
			for size[first] == 0 {
				first++
			}
			chain = append(chain, first)
		}
		for {
			top := chain[len(chain)-1]
			row := catchUp(top)
			prev, best := -1, first
			if len(chain) > 1 {
				// The previous chain element seeds the scan and wins ties,
				// so a reciprocal pair is always detected and the chain's
				// distances strictly decrease — the termination argument.
				// It can only tie its own entry, so the scan needs no test.
				prev = chain[len(chain)-2]
				best = prev
			} else {
				// No incumbent: the first live partner. Every slot before it
				// is +Inf, so the scan keeps it on a tie, and it is the
				// answer when every distance left is +Inf (±Inf input).
				for size[best] == 0 || best == top {
					best++
				}
			}
			best = nearest(row, best)
			bd := row[best]
			if best == prev && prev >= 0 {
				// Reciprocal nearest neighbours: merge b into a by
				// Lance-Williams, the weights hoisted out of the row.
				// Dead columns combine to +Inf again (the weights are
				// positive: no Inf-Inf or 0·Inf makes a NaN).
				a, b := min(prev, top), max(prev, top)
				ra, rb := min(orig[a], orig[b]), max(orig[a], orig[b])
				raw = append(raw, rawMerge{a: ra, b: rb, h: bd})
				ab := float64(size[a] + size[b])
				s := lwStep{a, b, float64(size[a]) / ab, float64(size[b]) / ab}
				rowA := catchUp(a)
				s.combineRows(linkage, rowA, catchUp(b))
				rowA[a], rowA[b] = inf, inf
				log = append(log, s)
				ver[a] = len(log)
				size[a], size[b] = size[a]+size[b], 0
				orig[a] = ra
				live--
				chain = chain[:len(chain)-2]
				break
			}
			chain = append(chain, best)
		}
	}
	// Merges were discovered chain-by-chain, not globally height-ordered.
	// The linkages here are monotone (a child merge never sits above its
	// parent), and discovery order respects the tree's partial order, so a
	// stable sort by height processes every child before its parent even
	// through ties.
	sort.SliceStable(raw, func(i, j int) bool { return raw[i].h < raw[j].h })
	parent := make([]int, n)
	node := make([]int, n) // cluster representative -> current tree node ID
	for i := range parent {
		parent[i], node[i] = i, i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	t := &Tree{NLeaves: n, Merges: make([]Merge, 0, n-1)}
	for step, m := range raw {
		ra, rb := find(m.a), find(m.b)
		if ra > rb {
			ra, rb = rb, ra
		}
		t.Merges = append(t.Merges, Merge{A: node[ra], B: node[rb], Height: m.h})
		parent[rb] = ra
		node[ra] = n + step
	}
	return t, nil
}
