package spell

import (
	"math/bits"
	"slices"

	"forestview/internal/microarray"
	"forestview/internal/stats"
	"forestview/internal/tilecorr"
)

// slab is one dataset of the compendium in scoring-ready form: one row per
// gene ID, in ascending order of the global gene index, held in the shared
// correlation kernel's tiles (internal/tilecorr: z-scored, zero-filled,
// eight rows to a tile, experiment-major), so that one pass over a tile dots
// a query row with eight gene rows at once.
type slab struct {
	tiles *tilecorr.Tiles
	// gids[r] is the global gene index of row r, ascending: a range of the
	// gene index is a contiguous run of rows, and a gene's row is found by
	// binary search.
	gids []int32
}

// The kernel's tile shape, as the scan walks it.
const (
	tileRows  = tilecorr.TileRows
	blockRows = tilecorr.BlockRows
)

// buildSlab prepares ds against the engine's global gene index. numGenes is
// the size of the global index (len of the engine's order slice). When a
// hand-built dataset carries a gene ID twice only the last row is kept: the
// shadowed row was never scored.
func buildSlab(ds *microarray.Dataset, gid map[string]int, numGenes int) *slab {
	last := make([]int32, numGenes) // global gene index -> the last row carrying it, -1 if none
	for i := range last {
		last[i] = -1
	}
	nRows := 0
	for g := range ds.Genes {
		gi := gid[ds.Genes[g].ID]
		if last[gi] < 0 {
			nRows++
		}
		last[gi] = int32(g)
	}
	s := &slab{gids: make([]int32, 0, nRows)}
	rows := make([][]float64, 0, nRows)
	for gi, g := range last {
		if g >= 0 {
			s.gids = append(s.gids, int32(gi))
			rows = append(rows, ds.Row(int(g)))
		}
	}
	s.tiles = tilecorr.New(rows, ds.NumExperiments())
	return s
}

// appendQueryRows appends to rows this dataset's rows measuring the given
// global gene indices, in that order.
func (s *slab) appendQueryRows(rows []tilecorr.Row, qgids []int) []tilecorr.Row {
	for _, gi := range qgids {
		if r, ok := slices.BinarySearch(s.gids, int32(gi)); ok {
			rows = append(rows, s.tiles.Row(r))
		}
	}
	return rows
}

// exactLanes finishes what tilecorr's FinishBlock started for tile t
// against a block whose rows start at rows[0]: the pairs set in flagged —
// bit k·tileRows+j, the ones the kernel does not vouch for or the caller
// keeps — are stats.Pearson itself. With them out[k·tileRows+j] holds the
// Pearson correlation of the tile's row j with the block's row k over the
// cells both observe, equal to stats.Pearson on the NaN-bearing z-rows to
// rounding, and NaN exactly when it is. Callers test flagged != 0 first: it
// is zero for all but a few tiles of a scan.
func (s *slab) exactLanes(out *[blockRows * tileRows]float64, flagged uint32, t int, rows []tilecorr.Row) {
	for ; flagged != 0; flagged &= flagged - 1 {
		p := bits.TrailingZeros32(flagged)
		out[p] = s.exactCorr(tileRows*t+p%tileRows, rows[p/tileRows].Index)
	}
}

// exactCorr is stats.Pearson on rows a and b with their missing cells put
// back as NaN, so the value — and the NaN — are the NaN-pairwise statistic's
// by construction.
func (s *slab) exactCorr(a, b int) float64 {
	var bufA, bufB [64]float64 // keeps the copies on the stack for all but the widest datasets
	return stats.Pearson(s.tiles.AppendZ(bufA[:0], a), s.tiles.AppendZ(bufB[:0], b))
}
