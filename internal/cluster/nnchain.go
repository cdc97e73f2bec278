package cluster

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sort"
	"sync"

	"forestview/internal/stats"
	"forestview/internal/tilecorr"
)

// This file is the clustering kernel: the exact O(n²) replacement for the
// O(n³)-worst-case reference path, in two stages.
//
// Stage 1 builds the condensed distance matrix in parallel; each worker
// writes disjoint rows of the flat matrix — no locks. The two Pearson
// metrics run on the correlation kernel SPELL scans with (internal/tilecorr):
// the rows are tiled once, z-scored and zero-filled, and every block of four
// rows meets every tile at or below its diagonal in one pass of dot products
// plus a correction per missing cell — no means, no variances, no NaN checks
// in the O(n²) loop, whether the rows are complete or not (tileDistances).
// The other metrics keep a per-pair kernel with a dense tier for complete
// rows (pairKernel). Either way a pair the fast arithmetic cannot settle to
// the reference's bits where they matter falls back to Metric.Distance on
// the raw rows, so missing-value semantics — and exact ties — are those of
// the reference path.
//
// Stage 2 agglomerates by nearest-neighbor chain (Müllner 2011): grow a
// chain slot → nearest neighbour → ... until two clusters are each other's
// nearest neighbour, merge them, and continue from the remaining chain. For
// the reducible Lance-Williams updates used here (single, complete,
// average) a merge never invalidates the rest of the chain, every
// reciprocal pair found this way is a merge of the greedy
// globally-closest-pair algorithm, and merge heights are monotone — so
// sorting the discovered merges by height reproduces the reference tree
// exactly (up to the order of tied merges) in O(n²) total time.

// Hierarchical builds a dendrogram over the rows using the given metric and
// linkage: a parallel distance-matrix build followed by exact
// nearest-neighbor-chain agglomeration. It produces the same tree as
// ReferenceHierarchical (see the parity tests) at a fraction of the cost;
// the before/after table in README.md quantifies the gap.
func Hierarchical(rows [][]float64, metric Metric, linkage Linkage) (*Tree, error) {
	return HierarchicalCtx(context.Background(), rows, metric, linkage)
}

// HierarchicalCtx is Hierarchical honoring cancellation: both the distance
// build and the agglomeration poll ctx and abandon the computation with
// ctx's error once it is done. The query daemon threads request contexts
// through here so a disconnected client stops paying for its tree build.
func HierarchicalCtx(ctx context.Context, rows [][]float64, metric Metric, linkage Linkage) (*Tree, error) {
	n := len(rows)
	if n == 0 {
		return nil, errors.New("cluster: no rows")
	}
	t := &Tree{NLeaves: n}
	if n == 1 {
		return t, nil
	}
	dist, err := buildDistances(ctx, rows, metric)
	if err != nil {
		return nil, err
	}
	return nnChain(ctx, n, dist, linkage)
}

// pairKernel evaluates one metric over row pairs, with a dense fast path
// for rows that admit one and a pairwise-complete fallback
// (Metric.Distance) for rows with missing values, so NaN-bearing microarray
// rows cannot poison the tree. It serves every metric but the two Pearson
// distances over rows of one length, which tileDistances builds.
type pairKernel struct {
	metric Metric
	rows   [][]float64
	dim    int       // common row length; 0 when rows are ragged (no fast path)
	unit   []float64 // contiguous per-row unit forms (uncentered and rank correlation)
	fast   []bool    // unit form exists for row i
	whole  []bool    // row i has no missing values (distance metrics)
}

// commonDim returns the length every row shares, or 0 when the rows are
// ragged or empty.
func commonDim(rows [][]float64) int {
	dim := len(rows[0])
	for _, r := range rows {
		if len(r) != dim {
			return 0
		}
	}
	return dim
}

func newPairKernel(rows [][]float64, metric Metric) *pairKernel {
	k := &pairKernel{metric: metric, rows: rows, dim: commonDim(rows)}
	if k.dim == 0 {
		return k // ragged input: every pair falls back
	}
	dim, n := k.dim, len(rows)
	switch metric {
	case UncenteredDist, SpearmanDist:
		k.unit = make([]float64, n*dim)
		k.fast = make([]bool, n)
		for i, row := range rows {
			dst := k.unit[i*dim : (i+1)*dim]
			switch metric {
			case UncenteredDist:
				k.fast[i] = stats.UnitNormInto(dst, row)
			case SpearmanDist:
				// Spearman is Pearson of mid-ranks, but only complete rows
				// keep that identity pairwise: a missing value changes the
				// partner's paired ranks too, so masked rows fall back.
				if rowComplete(row) {
					k.fast[i] = stats.CenterUnitNormInto(dst, stats.Ranks(row))
				}
			}
		}
	case EuclideanDist, ManhattanDist:
		k.whole = make([]bool, n)
		for i, row := range rows {
			k.whole[i] = rowComplete(row)
		}
	}
	return k
}

// dist returns the metric distance between rows i and j.
func (k *pairKernel) dist(i, j int) float64 {
	switch k.metric {
	case UncenteredDist, SpearmanDist:
		if k.fast != nil && k.fast[i] && k.fast[j] {
			r := stats.Dot(k.unit[i*k.dim:(i+1)*k.dim], k.unit[j*k.dim:(j+1)*k.dim])
			// Guard against floating-point drift outside [-1, 1], like
			// stats.Pearson does.
			if r > 1 {
				r = 1
			} else if r < -1 {
				r = -1
			}
			return 1 - r
		}
	case EuclideanDist:
		if k.whole != nil && k.whole[i] && k.whole[j] {
			a, b := k.rows[i], k.rows[j][:k.dim]
			var ss float64
			for x, v := range a {
				d := v - b[x]
				ss += d * d
			}
			return math.Sqrt(ss)
		}
	case ManhattanDist:
		if k.whole != nil && k.whole[i] && k.whole[j] {
			a, b := k.rows[i], k.rows[j][:k.dim]
			var s float64
			for x, v := range a {
				s += math.Abs(v - b[x])
			}
			return s
		}
	}
	return k.metric.Distance(k.rows[i], k.rows[j])
}

func rowComplete(row []float64) bool {
	for _, v := range row {
		if math.IsNaN(v) {
			return false
		}
	}
	return true
}

// buildDistances fills the condensed distance matrix in parallel. A pair's
// value depends on the two rows and their indices only — never on the
// worker count or on what else the process is building — so a tree is
// bit-stable on a host.
func buildDistances(ctx context.Context, rows [][]float64, metric Metric) (*triMatrix, error) {
	n := len(rows)
	dist := newTriMatrix(n)
	var fill func(w, workers int) // worker w's share; polls ctx once per unit of work
	if dim := commonDim(rows); dim > 0 && (metric == PearsonDist || metric == PearsonAbsDist) {
		tiles := tilecorr.New(rows, dim)
		fill = func(w, workers int) { tileDistances(ctx, dist, tiles, rows, metric, w, workers) }
	} else {
		// Triangular row i holds i pairs, so dealing rows round-robin keeps
		// the workers' shares within one row of each other.
		k := newPairKernel(rows, metric)
		fill = func(w, workers int) {
			for i := 1 + w; i < n && ctx.Err() == nil; i += workers {
				out := dist.v[i*(i-1)/2 : i*(i-1)/2+i]
				for j := range out {
					out[j] = k.dist(i, j)
				}
			}
		}
	}
	workers := max(1, min(runtime.GOMAXPROCS(0), n-1))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fill(w, workers)
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return dist, nil
}

// tileDistances is worker w's share of the Pearson distance build: the
// blocks of tilecorr.BlockRows rows numbered w, w+workers, … (a block's cost
// grows with its number, so dealing them round-robin balances the workers).
// A block is gathered once and met with every tile holding a row below one
// of its own; the kernel's block finish yields each pair's correlation over
// the cells both rows observe, and the distance goes straight into the
// block's rows of the condensed matrix, which no other worker writes.
//
// The lanes the kernel does not vouch for — two shared cells, a joint subset
// nearly constant, |r| within 1e-12 of 1 — are Metric.Distance on the raw
// rows, bit for bit. Under complete linkage that is structural, not
// cosmetic: two rows sharing two cells correlate at exactly ±1 in the
// reference, and a one-pass value an ulp short of it changes which pair
// merges at height 0 and with it the tree above (DESIGN.md §3b).
func tileDistances(ctx context.Context, dist *triMatrix, tiles *tilecorr.Tiles, rows [][]float64, metric Metric, w, workers int) {
	const tileRows, blockRows = tilecorr.TileRows, tilecorr.BlockRows
	n, dim := len(rows), tiles.NExp()
	q := tilecorr.Query{
		Rows: make([]tilecorr.Row, 0, blockRows),
		Buf:  make([]float64, tilecorr.QueryCells(blockRows, dim)),
	}
	var dots, rs [blockRows * tileRows]float64
	for i0 := w * blockRows; i0 < n && ctx.Err() == nil; i0 += workers * blockRows {
		i1 := min(i0+blockRows, n)
		q.Rows = q.Rows[:0]
		for i := i0; i < i1; i++ {
			q.Rows = append(q.Rows, tiles.Row(i))
		}
		clear(q.Buf)
		tiles.Gather(&q)
		z, _, _ := q.Block(0, dim)
		for t := 0; t*tileRows < i1-1; t++ {
			base := t * tileRows
			tilecorr.Dot(&dots, tiles.Tile(t), z, dim)
			flagged := tiles.FinishBlock(&rs, &dots, t, &q, 0)
			for k := max(0, base+1-i0); k < i1-i0; k++ {
				i := i0 + k
				live := min(tileRows, i-base) // the tile's rows below row i
				// Only those lanes are read: the diagonal's self-pair, flagged
				// at r = 1, is never recomputed.
				below := uint8(flagged>>(tileRows*k)) & (1<<live - 1)
				out := dist.v[i*(i-1)/2+base:]
				for j, r := range rs[k*tileRows : k*tileRows+live] {
					switch {
					case below>>j&1 != 0 || math.IsNaN(r): // NaN: fewer than two shared cells, the metric's maximum
						out[j] = metric.Distance(rows[i], rows[base+j])
					case metric == PearsonAbsDist:
						out[j] = 1 - math.Abs(r)
					default:
						out[j] = 1 - r
					}
				}
			}
		}
	}
}

// nnChain agglomerates the condensed matrix by nearest-neighbor chain and
// relabels the discovered merges into the reference node-numbering
// convention (merges in nondecreasing height order, clusters represented by
// their smallest leaf). It consumes dist as scratch space.
//
// Two matrix disciplines keep the chain phase cheap. Dead slots are
// tombstoned: a merge overwrites the dying slot's entries with +Inf in the
// same pass that applies the Lance-Williams update, so the nearest-
// neighbour scans need no per-element liveness test — +Inf can never win a
// strict comparison. And when more than half the slots are dead, the
// matrix is compacted onto the survivors: scans walk the (shrinking)
// current width, and once the live matrix fits in cache the strided
// upper-triangle reads stop missing. Discarding the chain at a compaction
// is sound — any chain rebuilt from current nearest neighbours finds a
// reciprocal pair of the same agglomeration.
func nnChain(ctx context.Context, n int, dist *triMatrix, linkage Linkage) (*Tree, error) {
	type rawMerge struct {
		a, b int // original cluster representatives (smallest leaf), a < b
		h    float64
	}
	raw := make([]rawMerge, 0, n-1)
	cur := n // current matrix width (shrinks at compactions)
	active := make([]bool, n)
	size := make([]int, n)
	orig := make([]int, n) // slot -> smallest original leaf of its cluster
	for i := range active {
		active[i], size[i], orig[i] = true, 1, i
	}
	live := n
	first := 0 // smallest possibly-active slot, advanced lazily
	chain := make([]int, 0, 64)
	for len(raw) < n-1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(chain) == 0 {
			for !active[first] {
				first++
			}
			chain = append(chain, first)
		}
		for {
			top := chain[len(chain)-1]
			prev := -1
			best, bd := -1, math.Inf(1)
			if len(chain) > 1 {
				// The previous chain element seeds the scan and wins ties,
				// so a reciprocal pair is always detected and the chain's
				// distances strictly decrease — the termination argument.
				prev = chain[len(chain)-2]
				best, bd = prev, dist.at(top, prev)
			}
			// Nearest-neighbour scan, split at the diagonal so the j < top
			// half streams through row `top` contiguously and the j > top
			// half advances its flat index incrementally (idx(j+1) =
			// idx(j) + j) — this loop is the kernel's agglomeration cost.
			// Dead slots and prev need no per-element test: dead entries
			// are +Inf, and prev — the seeded incumbent — can only tie its
			// own entry, so prev wins ties, the property the termination
			// argument needs.
			row := dist.v[top*(top-1)/2:]
			for j := 0; j < top; j++ {
				if d := row[j]; d < bd {
					bd, best = d, j
				}
			}
			idx := top*(top+1)/2 + top
			for j := top + 1; j < cur; j++ {
				if d := dist.v[idx]; d < bd {
					bd, best = d, j
				}
				idx += j
			}
			if best < 0 {
				// Every remaining distance is +Inf (pathological input,
				// e.g. ±Inf expression values): any live partner will do.
				for j := first; j < cur; j++ {
					if active[j] && j != top {
						best, bd = j, dist.at(top, j)
						break
					}
				}
			}
			if best == prev && prev >= 0 {
				// Reciprocal nearest neighbours: merge b into a with the
				// same Lance-Williams arithmetic as the reference (bitwise,
				// for height parity — the hoisted weights evaluate the
				// identical expression the reference computes per pair).
				a, b := prev, top
				if a > b {
					a, b = b, a
				}
				ra, rb := orig[a], orig[b]
				if ra > rb {
					ra, rb = rb, ra
				}
				raw = append(raw, rawMerge{a: ra, b: rb, h: bd})
				var combine func(da, db float64) float64
				switch linkage {
				case AverageLinkage:
					wa := float64(size[a]) / float64(size[a]+size[b])
					wb := float64(size[b]) / float64(size[a]+size[b])
					combine = func(da, db float64) float64 { return wa*da + wb*db }
				case CompleteLinkage:
					combine = math.Max
				default:
					combine = math.Min
				}
				// Walk the triangle like the scan: row a and row b are
				// contiguous below their diagonals, flat indices advance by
				// j beyond them. Slot b's entries are tombstoned to +Inf in
				// the same pass so future scans skip the dead slot for
				// free; dead-pair entries are already +Inf on both sides
				// and combine to +Inf again (the weights are positive, so
				// no Inf-Inf or 0·Inf can make a NaN).
				inf := math.Inf(1)
				rowA := dist.v[a*(a-1)/2:]
				rowB := dist.v[b*(b-1)/2:]
				for j := 0; j < a; j++ {
					rowA[j] = combine(rowA[j], rowB[j])
					rowB[j] = inf
				}
				idxA := a*(a+1)/2 + a // idx(a, a+1)
				for j := a + 1; j < b; j++ {
					dist.v[idxA] = combine(dist.v[idxA], rowB[j])
					rowB[j] = inf
					idxA += j
				}
				dist.v[idxA] = inf // the a↔b entry dies with b
				idxA += b
				idxB := b*(b+1)/2 + b
				for j := b + 1; j < cur; j++ {
					dist.v[idxA] = combine(dist.v[idxA], dist.v[idxB])
					dist.v[idxB] = inf
					idxA += j
					idxB += j
				}
				active[b] = false
				size[a] += size[b]
				orig[a] = ra
				live--
				chain = chain[:len(chain)-2]
				if 2*live < cur && live > 32 {
					// Compact the matrix onto the survivors, preserving
					// slot order (so representative-slot reasoning is
					// unaffected), and restart the chain.
					k := 0
					for s := 0; s < cur; s++ {
						if !active[s] {
							continue
						}
						// New row k gathers the live columns of old row s;
						// both sides walk forward, so reads and writes stay
						// in order.
						oldRow := dist.v[s*(s-1)/2 : s*(s-1)/2+s]
						newRow := dist.v[k*(k-1)/2:]
						c := 0
						for j := 0; j < s; j++ {
							if active[j] {
								newRow[c] = oldRow[j]
								c++
							}
						}
						size[k], orig[k] = size[s], orig[s]
						k++
					}
					cur = k
					for s := 0; s < cur; s++ {
						active[s] = true
					}
					first = 0
					chain = chain[:0]
				}
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
