package spell

import (
	"math"
	"slices"

	"forestview/internal/microarray"
	"forestview/internal/stats"
)

// slab is one dataset of the compendium in scoring-ready form: one z-scored
// row per gene ID, in ascending order of the global gene index, stored as
// tiles of tileRows rows, experiment-major, so that one pass over a tile
// dots a query row with eight gene rows at once (dotTile). Missing cells are
// stored as 0 — a missing cell on either side of a pair contributes exactly
// 0 to its dot product, no per-cell test — and what the zero-fill hides is
// kept beside the tiles: each row's totals over its observed cells and the
// list of its missing cells, from which finishTile recovers the exact
// moments over the cells a pair observes jointly.
type slab struct {
	nExp int
	// gids[r] is the global gene index of row r, ascending: a range of the
	// gene index is a contiguous run of rows, and a gene's row is found by
	// binary search.
	gids []int32
	// zt holds the tiles back to back: row tileRows·t+j at experiment e is
	// zt[(t·nExp+e)·tileRows+j]. The last tile is zero-padded.
	zt []float64
	// Row r's moments over its observed cells, t1 = Σz and t2 = Σz², and
	// inv = 1/sqrt(nExp·t2 − t1²), the row's variance term when a pair has
	// nothing to correct (0 when that term fails varGuard — a constant
	// row). Padded to the tile with zeros.
	t1, t2, inv []float64
	// Row r's missing cells are miss[missOff[r]:missOff[r+1]], each entry
	// column<<3 | lane — the cell's offset within its tile — by ascending
	// column; missOff is padded to the tile, so tile t's missing cells are
	// the one contiguous list miss[missOff[tileRows·t]:missOff[tileRows·(t+1)]].
	missOff []int32
	miss    []int32
}

const (
	tileRows  = 8 // gene rows a tile interleaves: two 256-bit vectors of float64
	blockRows = 4 // query rows dotted with a tile in one pass
)

// tile returns tile t: tileRows·nExp cells, experiment-major.
func (s *slab) tile(t int) []float64 {
	return s.zt[t*tileRows*s.nExp : (t+1)*tileRows*s.nExp]
}

// buildSlab prepares ds against the engine's global gene index. numGenes is
// the size of the global index (len of the engine's order slice). When a
// hand-built dataset carries a gene ID twice only the last row is kept: the
// shadowed row was never scored.
func buildSlab(ds *microarray.Dataset, gid map[string]int, numGenes int) *slab {
	nE := ds.NumExperiments()
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
	padded := (nRows + tileRows - 1) / tileRows * tileRows
	s := &slab{
		nExp:    nE,
		gids:    make([]int32, 0, nRows),
		zt:      make([]float64, padded*nE),
		t1:      make([]float64, padded),
		t2:      make([]float64, padded),
		inv:     make([]float64, padded),
		missOff: make([]int32, padded+1),
	}
	zr := make([]float64, nE)
	for gi, g := range last {
		if g < 0 {
			continue
		}
		r := len(s.gids)
		s.gids = append(s.gids, int32(gi))
		stats.ZScoresInto(zr, ds.Row(int(g)))
		tile, lane := s.tile(r/tileRows), r%tileRows
		var t1, t2 float64
		for i, v := range zr {
			if math.IsNaN(v) {
				s.miss = append(s.miss, int32(i<<3|lane))
				continue
			}
			tile[i*tileRows+lane] = v
			t1 += v
			t2 += v * v
		}
		s.t1[r], s.t2[r] = t1, t2
		if d := float64(nE)*t2 - t1*t1; d > varGuard*float64(nE)*t2 {
			s.inv[r] = 1 / math.Sqrt(d)
		}
		s.missOff[r+1] = int32(len(s.miss))
	}
	for r := nRows; r < padded; r++ {
		s.missOff[r+1] = int32(len(s.miss))
	}
	return s
}

// queryRow is one query gene's row in one dataset, as finishTile reads it.
type queryRow struct {
	row         int32   // the slab row: lane row%tileRows of tile row/tileRows
	t1, t2, inv float64 // as in the slab
	miss        []int32 // the row's entries of the slab's missing list (column = entry>>3)
}

// queryRows is what stage 1 leaves of one dataset for the kernel: the rows
// measuring query genes, in query order, gathered out of their tiles into
// blocks of blockRows. Block b is 2·blockRows·nExp cells of buf: first the
// rows' zero-filled z-scores, interleaved — row blockRows·b+k at experiment
// e is z[e·blockRows+k], absent rows 0 — then, in the same layout, 1 where
// the row observes the experiment and 0 where it does not.
type queryRows struct {
	rows []queryRow
	buf  []float64
}

// block returns block b's z-scores, its presence mask and how many of its
// rows are live.
func (q *queryRows) block(b, nExp int) (z, present []float64, live int) {
	n := blockRows * nExp
	blk := q.buf[2*n*b : 2*n*(b+1)]
	return blk[:n], blk[n:], min(blockRows, len(q.rows)-blockRows*b)
}

// blocks is the number of blocks the rows fill.
func (q *queryRows) blocks() int { return (len(q.rows) + blockRows - 1) / blockRows }

// appendQueryRows appends to rows this dataset's rows measuring the given
// global gene indices.
func (s *slab) appendQueryRows(rows []queryRow, qgids []int) []queryRow {
	for _, gi := range qgids {
		if r, ok := slices.BinarySearch(s.gids, int32(gi)); ok {
			rows = append(rows, queryRow{
				row: int32(r), t1: s.t1[r], t2: s.t2[r], inv: s.inv[r],
				miss: s.miss[s.missOff[r]:s.missOff[r+1]],
			})
		}
	}
	return rows
}

// gather copies q's rows out of their tiles into q.buf, which must be
// zeroed and hold 2·blockRows·nExp cells per block.
func (s *slab) gather(q *queryRows) {
	for i, qr := range q.rows {
		z, present, _ := q.block(i/blockRows, s.nExp)
		k, r := i%blockRows, int(qr.row)
		tile, lane := s.tile(r/tileRows), r%tileRows
		for e := 0; e < s.nExp; e++ {
			z[e*blockRows+k] = tile[e*tileRows+lane]
			present[e*blockRows+k] = 1
		}
		for _, m := range qr.miss {
			present[int(m>>3)*blockRows+k] = 0
		}
	}
}

// dotTile fills out[k·tileRows+j] with Σ_e qz[e·blockRows+k]·tile[e·tileRows+j],
// summed in ascending e: the dot products of blockRows interleaved query
// rows with the tileRows rows of one tile. The work is done by the build's
// assembly routine where start-up found the CPU can run it (useAsm,
// dot_amd64.go) and by dotTileGo everywhere else; the length checks here
// are what keeps the assembly from reading past its arguments.
func dotTile(out *[blockRows * tileRows]float64, tile, qz []float64, nExp int) {
	if nExp < 0 || len(tile) < tileRows*nExp || len(qz) < blockRows*nExp {
		panic("spell: dotTile arguments shorter than nExp lines")
	}
	if useAsm {
		dotTileAsm(out, tile, qz, nExp)
		return
	}
	dotTileGo(out, tile, qz, nExp)
}

// KernelName names the dot routine this process scores with: "avx2-fma"
// (amd64 with AVX2 and FMA) or "go". Replicas on different routines differ
// in speed and in the last bits of a score (fused against unfused rounding).
func KernelName() string {
	if useAsm {
		return "avx2-fma"
	}
	return "go"
}

// dotTileGo is the portable dot routine, and the assembly's oracle.
func dotTileGo(out *[blockRows * tileRows]float64, tile, qz []float64, nExp int) {
	for k := 0; k < blockRows; k++ {
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		for e := 0; e < nExp; e++ {
			q, line := qz[e*blockRows+k], (*[tileRows]float64)(tile[e*tileRows:])
			a0 += q * line[0]
			a1 += q * line[1]
			a2 += q * line[2]
			a3 += q * line[3]
			a4 += q * line[4]
			a5 += q * line[5]
			a6 += q * line[6]
			a7 += q * line[7]
		}
		*(*[tileRows]float64)(out[k*tileRows:]) = [tileRows]float64{a0, a1, a2, a3, a4, a5, a6, a7}
	}
}

// varGuard is the share of a row's full sum of squares its variance term
// over a pair's joint cells must keep for the one-pass moments to be
// trusted. Rounding in n·Σz² − (Σz)² is a few ulps of nExp·t2, so above the
// guard the correlation is good to ~1e-14; below it (the joint cells are
// nearly constant, or exactly so) the pair is recomputed by exactCorr.
const varGuard = 1.0 / 64

// finishTile turns dot — the dot products of tile t's rows with row i of q,
// as dotTile left them for its block — into out: the Pearson correlation of
// each of the tile's first live rows with that query row over the cells
// both observe, equal to stats.Pearson on the NaN-bearing z-rows to
// rounding, and NaN exactly when it is. Lanes past live hold nothing.
//
// Because missing cells are stored as 0 the dot product already is Σab over
// the joint cells; each row's Σz and Σz² over the joint cells are its
// stored totals minus its values at the other row's missing columns, and
// the joint count is nExp minus the columns either row is missing. The
// gene rows lose a whole tile line per column the query row is missing;
// the query row's sums are corrected, lane by lane, in one walk of the
// tile's missing list — whose presence-mask term leaves a column missing
// on both sides counted once. No list is walked per lane.
func (s *slab) finishTile(out *[tileRows]float64, t int, dot *[tileRows]float64, q *queryRows, i, live int) {
	qr, k := &q.rows[i], i%blockRows
	base := tileRows * t
	t1, t2 := (*[tileRows]float64)(s.t1[base:]), (*[tileRows]float64)(s.t2[base:])
	inv := (*[tileRows]float64)(s.inv[base:])
	tmiss := s.miss[s.missOff[base]:s.missOff[base+tileRows]]
	fnE := float64(s.nExp)
	if len(tmiss)+len(qr.miss) == 0 && qr.inv != 0 && !slices.Contains(inv[:live], 0) {
		// Nothing to correct: every variance term is its row's own.
		for j := range out {
			out[j] = stats.Clamp((fnE*dot[j]-t1[j]*qr.t1)*(inv[j]*qr.inv), -1, 1)
		}
		return
	}
	tile := s.tile(t)
	z, present, _ := q.block(i/blockRows, s.nExp)
	sa, saa := *t1, *t2
	for _, m := range qr.miss {
		for j, v := range (*[tileRows]float64)(tile[m&^7:]) {
			sa[j] -= v
			saa[j] -= v * v
		}
	}
	var sb, sbb, n [tileRows]float64
	nb := float64(s.nExp - len(qr.miss))
	for j := range n {
		sb[j], sbb[j], n[j] = qr.t1, qr.t2, nb
	}
	for _, m := range tmiss {
		c, j := int(m>>3)*blockRows+k, m&7
		v := z[c]
		sb[j] -= v
		sbb[j] -= v * v
		n[j] -= present[c]
	}
	lim := varGuard * fnE
	for j := 0; j < live; j++ {
		fn := n[j]
		if fn < 2 {
			out[j] = math.NaN()
			continue
		}
		da, db := fn*saa[j]-sa[j]*sa[j], fn*sbb[j]-sb[j]*sb[j]
		if !(da > lim*t2[j] && db > lim*qr.t2) {
			out[j] = s.exactCorr(base+j, qr, z[k:])
			continue
		}
		out[j] = stats.Clamp((fn*dot[j]-sa[j]*sb[j])/math.Sqrt(da*db), -1, 1)
	}
}

// exactCorr is stats.Pearson itself on a pair's joint cells, for the rare
// pair finishTile hands it: slab row r with NaN put back at every column
// either row is missing (the query row's zeros there are then skipped with
// them), so the value — and the NaN — are the NaN-pairwise statistic's by
// construction. qz is the query row's block from the row's first cell on.
func (s *slab) exactCorr(r int, qr *queryRow, qz []float64) float64 {
	var bufA, bufB [64]float64 // keeps the copies on the stack for all but the widest datasets
	x, y := bufA[:0], bufB[:0]
	tile, lane := s.tile(r/tileRows), r%tileRows
	for e := 0; e < s.nExp; e++ {
		x = append(x, tile[e*tileRows+lane])
		y = append(y, qz[e*blockRows])
	}
	for _, m := range s.miss[s.missOff[r]:s.missOff[r+1]] {
		x[m>>3] = math.NaN()
	}
	for _, m := range qr.miss {
		x[m>>3] = math.NaN()
	}
	return stats.Pearson(x, y)
}
