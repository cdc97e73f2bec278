// Package tilecorr is the Pearson correlation kernel under SPELL's scan
// (internal/spell) and the clustering distance build (internal/cluster).
//
// Rows are stored z-scored and zero-filled in tiles of eight, experiment-
// major (Tiles). One pass over a tile dots it with a block of up to four
// gathered rows (Dot), and FinishBlock turns those 4×8 dots into 32
// correlations over the cells each pair observes jointly — a missing cell
// costs a correction, not another code path. ScoreRange does both for every
// tile of a run of rows against every block of a query, and adds each row's
// mean correlation onto SPELL's exact grid, in one call; DistanceRange does
// both for a block against every tile below it, and writes each pair's
// Pearson distance into a matrix. All are AVX2+FMA assembly where the CPU
// has it and the same arithmetic in Go everywhere else; ScoreRange and
// DistanceRange meet two tiles a pass in AVX-512 where the CPU has that, to
// the same bits. A pair
// whose one-pass value cannot be trusted to the last bits is reported to the
// caller, who recomputes it exactly by its own definition: the kernel never
// chooses the exact routine.
package tilecorr

import (
	"math"

	"forestview/internal/stats"
)

const (
	TileRows  = 8 // rows a tile interleaves: two 256-bit vectors of float64
	BlockRows = 4 // gathered rows dotted with a tile in one pass
)

// Tiles holds rows of nExp cells in kernel-ready form: each row z-scored
// over its observed cells, missing (NaN) cells stored as 0 — so a missing
// cell on either side of a pair contributes exactly 0 to its dot product,
// no per-cell test — and, beside the tiles, what the zero-fill hides: each
// row's totals over its observed cells and its missing cells, from which
// FinishBlock recovers the exact moments over a pair's joint cells.
// Tiles are immutable once built and safe for concurrent use.
type Tiles struct {
	nExp, rows int
	// zt holds the tiles back to back: row TileRows·t+j at experiment e is
	// zt[(t·nExp+e)·TileRows+j]. The last tile is zero-padded.
	zt []float64
	// Row r's moments over its observed cells, t1 = Σz and t2 = Σz², padded
	// to the tile with zeros.
	t1, t2 []float64
	// Row r's missing cells are miss[missOff[r]:missOff[r+1]], each entry
	// column<<3 | lane — the cell's offset within its tile — by ascending
	// column; missOff is padded to the tile, so tile t's missing cells are
	// the one contiguous list miss[missOff[TileRows·t]:missOff[TileRows·(t+1)]].
	missOff []int32
	miss    []int32
}

// New tiles rows, each of which must hold nExp cells (NaN = missing), in
// the order given: row r is lane r%TileRows of tile r/TileRows.
func New(rows [][]float64, nExp int) *Tiles {
	padded := (len(rows) + TileRows - 1) / TileRows * TileRows
	s := &Tiles{
		nExp:    nExp,
		rows:    len(rows),
		zt:      make([]float64, padded*nExp),
		t1:      make([]float64, padded),
		t2:      make([]float64, padded),
		missOff: make([]int32, padded+1),
	}
	zr := make([]float64, nExp)
	for r, row := range rows {
		stats.ZScoresInto(zr, row[:nExp])
		tile, lane := s.Tile(r/TileRows), r%TileRows
		var t1, t2 float64
		for i, v := range zr {
			if math.IsNaN(v) {
				s.miss = append(s.miss, int32(i<<3|lane))
				continue
			}
			tile[i*TileRows+lane] = v
			t1 += v
			t2 += v * v
		}
		s.t1[r], s.t2[r] = t1, t2
		s.missOff[r+1] = int32(len(s.miss))
	}
	for r := len(rows); r < padded; r++ {
		s.missOff[r+1] = int32(len(s.miss))
	}
	return s
}

// NExp is the number of cells in a row.
func (s *Tiles) NExp() int { return s.nExp }

// Tile returns tile t: TileRows·nExp cells, experiment-major.
func (s *Tiles) Tile(t int) []float64 {
	return s.zt[t*TileRows*s.nExp : (t+1)*TileRows*s.nExp]
}

// AppendZ appends row r's z-scores to dst, NaN back at its missing cells:
// the row as stats.ZScoresInto left it, for a caller's exact recomputation.
func (s *Tiles) AppendZ(dst []float64, r int) []float64 {
	from := len(dst)
	tile, lane := s.Tile(r/TileRows), r%TileRows
	for e := 0; e < s.nExp; e++ {
		dst = append(dst, tile[e*TileRows+lane])
	}
	for _, m := range s.miss[s.missOff[r]:s.missOff[r+1]] {
		dst[from+int(m>>3)] = math.NaN()
	}
	return dst
}

// Row is one row of the tiles as FinishBlock reads it on the gathered side:
// everything the finish needs of a query row besides its cells, so a query
// is prepared once, not per tile. The assembly reads these fields by name
// (go_asm.h).
type Row struct {
	Index  int     // the row: lane Index%TileRows of tile Index/TileRows
	t1, t2 float64 // as in the tiles
	miss   []int32 // the row's entries of the missing list (column = entry>>3)
}

// Row returns row r for a Query.
func (s *Tiles) Row(r int) Row {
	return Row{Index: r, t1: s.t1[r], t2: s.t2[r], miss: s.miss[s.missOff[r]:s.missOff[r+1]]}
}

// Query is a set of rows gathered out of their tiles into blocks of
// BlockRows, the side of the kernel one tile is met with. Block b is
// 2·BlockRows·nExp cells of Buf: first the rows' zero-filled z-scores,
// interleaved — row BlockRows·b+k at experiment e is z[e·BlockRows+k], absent
// rows 0 — then, in the same layout, 1 where the row observes the experiment
// and 0 where it does not. The caller owns both slices, so many queries can
// be cut from two allocations. Gather checks the rows against the tiles'
// width and records it; the finish checks only that record, so Rows and Buf
// do not change between a Gather and the finishes that read it.
type Query struct {
	Rows []Row
	Buf  []float64 // QueryCells(len(Rows), nExp) cells, zeroed before Gather

	checked int // 1 + the width Gather checked Rows against; 0 until it has
}

// QueryCells is the number of cells a Query of n rows needs in Buf.
func QueryCells(n, nExp int) int {
	return (n + BlockRows - 1) / BlockRows * 2 * BlockRows * nExp
}

// Blocks is the number of blocks the rows fill.
func (q *Query) Blocks() int { return (len(q.Rows) + BlockRows - 1) / BlockRows }

// Block returns block b's z-scores, its presence mask and how many of its
// rows are live.
func (q *Query) Block(b, nExp int) (z, present []float64, live int) {
	n := BlockRows * nExp
	blk := q.Buf[2*n*b : 2*n*(b+1)]
	return blk[:n], blk[n:], min(BlockRows, len(q.Rows)-BlockRows*b)
}

// Gather copies q.Rows out of their tiles into q.Buf, after checking that
// every row's missing columns lie inside these tiles' width: the assembly
// reads the query's cells at them.
func (s *Tiles) Gather(q *Query) {
	q.checked = 0
	for _, qr := range q.Rows {
		if m := qr.miss; len(m) > 0 && int(m[len(m)-1]>>3) >= s.nExp {
			panic("tilecorr: Gather query row from tiles of another width")
		}
	}
	for i, qr := range q.Rows {
		z, present, _ := q.Block(i/BlockRows, s.nExp)
		k := i % BlockRows
		tile, lane := s.Tile(qr.Index/TileRows), qr.Index%TileRows
		for e := 0; e < s.nExp; e++ {
			z[e*BlockRows+k] = tile[e*TileRows+lane]
			present[e*BlockRows+k] = 1
		}
		for _, m := range qr.miss {
			present[int(m>>3)*BlockRows+k] = 0
		}
	}
	q.checked = s.nExp + 1
}

// checkQuery panics unless q was gathered at these tiles' width into a
// buffer that holds its blocks: what the assembly relies on of a query.
func (s *Tiles) checkQuery(q *Query) {
	if q.checked != s.nExp+1 || len(q.Buf) < QueryCells(len(q.Rows), s.nExp) {
		panic("tilecorr: query not gathered at these tiles' width")
	}
}

// Dot fills out[k·TileRows+j] with Σ_e qz[e·BlockRows+k]·tile[e·TileRows+j],
// summed in ascending e: the dot products of BlockRows interleaved gathered
// rows with the TileRows rows of one tile. The work is done by the build's
// AVX2 routine where start-up found the CPU can run it (kernel,
// dot_amd64.go) and by dotGo everywhere else; the length checks here are
// what keeps the assembly from reading past its arguments.
func Dot(out *[BlockRows * TileRows]float64, tile, qz []float64, nExp int) {
	if nExp < 0 || len(tile) < TileRows*nExp || len(qz) < BlockRows*nExp {
		panic("tilecorr: Dot arguments shorter than nExp lines")
	}
	if kernel >= avx2Kernel {
		dotAsm(out, tile, qz, nExp)
		return
	}
	dotGo(out, tile, qz, nExp, BlockRows)
}

// The routines a process can run, each needing the CPU features of the one
// before it: kernel holds the one start-up chose (dot_amd64.go).
const (
	goKernel     = iota // Go everywhere
	avx2Kernel          // AVX2+FMA assembly
	avx512Kernel        // ScoreRange and DistanceRange in AVX-512, Dot and FinishBlock in AVX2
)

// KernelName names the routines this process runs: "avx512" (amd64 with
// AVX-512F: ScoreRange's and DistanceRange's, with Dot and FinishBlock on
// AVX2), "avx2-fma"
// (amd64 with AVX2 and FMA) or "go". The two assembly names give the same
// bits; the Go routines differ from them in the last bits of a correlation
// (the assembly dot fuses its multiply-adds, the Go loop does not).
func KernelName() string {
	return [...]string{goKernel: "go", avx2Kernel: "avx2-fma", avx512Kernel: "avx512"}[kernel]
}

// dotGo is the portable dot routine, and the assembly's oracle, for the
// block's first rows rows: each row's dots are its own sums, so leaving the
// others out changes no bit of these.
func dotGo(out *[BlockRows * TileRows]float64, tile, qz []float64, nExp, rows int) {
	for k := 0; k < rows; k++ {
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		for e := 0; e < nExp; e++ {
			q, line := qz[e*BlockRows+k], (*[TileRows]float64)(tile[e*TileRows:])
			a0 += q * line[0]
			a1 += q * line[1]
			a2 += q * line[2]
			a3 += q * line[3]
			a4 += q * line[4]
			a5 += q * line[5]
			a6 += q * line[6]
			a7 += q * line[7]
		}
		*(*[TileRows]float64)(out[k*TileRows:]) = [TileRows]float64{a0, a1, a2, a3, a4, a5, a6, a7}
	}
}

// varGuard is the share of a row's full sum of squares its variance term
// over a pair's joint cells must keep for the one-pass moments to be
// trusted. Rounding in n·Σz² − (Σz)² is a few ulps of nExp·t2, so above the
// guard the correlation is good to ~1e-14; below it (the joint cells are
// nearly constant, or exactly so) the finish flags the pair.
const varGuard = 1.0 / 64

// sure bounds the correlations the finish vouches for. At |r| = 1 a
// two-pass Pearson is exact where the one-pass identity lands an ulp short
// or is clamped, and exact ties at ±1 are structural to callers that compare
// pairs — duplicated rows, rows sharing two cells — so anything this close
// is the caller's to recompute. dot_amd64.s spells it out as a literal.
const sure = 1 - 1e-12

// unitLanes[j] is 1 in lane j and 0 in the others: a missing cell's lane
// as a multiplier, which the assembly loads two vectors at a time.
var unitLanes = func() (u [TileRows][TileRows]float64) {
	for j := range u {
		u[j][j] = 1
	}
	return u
}()

// FinishBlock turns dots — tile t's rows dotted with block b of q, as Dot
// left them — into out[k·TileRows+j]: the Pearson correlation of the
// block's row k with the tile's row j over the cells both observe, equal to
// stats.Pearson on the NaN-bearing rows to rounding (≤1e-12), and NaN where
// fewer than two cells are shared. flagged has bit k·TileRows+j set for the
// pairs the kernel does not vouch for — two shared cells, a variance term
// under varGuard, |r| beyond sure: every pair whose correlation is ±1 or
// undefined is among them — and the caller recomputes those by its own
// exact routine. Only real pairs are reported: lanes past the tiles' last
// row and rows past the block's live ones are never flagged and hold
// nothing to read.
//
// Because missing cells are stored as 0 the dot product already is Σab over
// the joint cells; each row's Σz and Σz² over the joint cells are its
// stored totals minus its values at the other row's missing columns, and
// the joint count is nExp minus the columns either row is missing. A block
// row loses a whole tile line per column it is missing; it in turn is
// subtracted, eight lanes at a time through unitLanes, at each of the tile's
// missing cells — whose presence term leaves a column missing on both sides
// counted once. The work is done by the assembly where Dot's is
// (kernel) and by finishGo, the same arithmetic, everywhere else; the checks
// here keep the assembly inside its arguments.
func (s *Tiles) FinishBlock(out, dots *[BlockRows * TileRows]float64, t int, q *Query, b int) (flagged uint32) {
	tile, t1, t2, cells, lim := s.finishArgs(t, q)
	z, present, live := q.Block(b, s.nExp)
	rows := q.Rows[BlockRows*b : BlockRows*b+live]
	if kernel >= avx2Kernel {
		flagged = finishAsm(out, dots, tile, t1, t2, cells, z, present, rows, &unitLanes, lim)
	} else {
		flagged = finishGo(out, dots, tile, t1, t2, cells, z, present, rows, lim)
	}
	// Every real pair: the tile's lanes up to its last row, in each live row
	// (a uint32 shifted by 32 is 0, so four live rows keep all 32 bits).
	lanes := uint32(s.lanes(t))
	return flagged & (lanes * 0x01010101) & (uint32(1)<<(TileRows*live) - 1)
}

// finishArgs checks q (checkQuery) and returns what the finish reads of
// tile t — its cells, totals and missing cells — and lim, the guard's share
// of nExp: a variance term must exceed lim times its row's t2.
func (s *Tiles) finishArgs(t int, q *Query) (tile []float64, t1, t2 *[TileRows]float64, cells []int32, lim float64) {
	s.checkQuery(q)
	tile, t1, t2, cells = s.tileArgs(t)
	return tile, t1, t2, cells, s.lim()
}

// tileArgs is what the finish reads of tile t: its cells, totals and
// missing cells.
func (s *Tiles) tileArgs(t int) (tile []float64, t1, t2 *[TileRows]float64, cells []int32) {
	base := TileRows * t
	return s.Tile(t), (*[TileRows]float64)(s.t1[base:]), (*[TileRows]float64)(s.t2[base:]),
		s.miss[s.missOff[base]:s.missOff[base+TileRows]]
}

// lim is the guard's share of nExp: a variance term must exceed lim times
// its row's t2.
func (s *Tiles) lim() float64 { return varGuard * float64(s.nExp) }

// lanes has bit j set for each lane j of tile t that holds a row.
func (s *Tiles) lanes(t int) uint8 {
	return uint8(1)<<min(TileRows, s.rows-TileRows*t) - 1
}

// finishGo is FinishBlock's arithmetic in Go, and the assembly's oracle:
// the same sums in the same order, each rounded where the assembly rounds,
// so the two agree to the bit wherever Go does not fuse a multiply-add.
func finishGo(out, dots *[BlockRows * TileRows]float64, tile []float64, t1, t2 *[TileRows]float64, cells []int32, z, present []float64, rows []Row, lim float64) (flagged uint32) {
	nExp := len(tile) / TileRows
	var limA [TileRows]float64
	for j, v := range t2 {
		limA[j] = lim * v
	}
	for k := range rows {
		qr := &rows[k]
		sa, saa := *t1, *t2
		for _, m := range qr.miss {
			for j, v := range (*[TileRows]float64)(tile[m&^7:]) {
				sa[j] -= v
				saa[j] -= v * v
			}
		}
		var sb, sbb, n [TileRows]float64
		nb := float64(nExp - len(qr.miss))
		for j := range n {
			sb[j], sbb[j], n[j] = qr.t1, qr.t2, nb
		}
		for _, m := range cells {
			i, j := int(m>>3)*BlockRows+k, m&7
			v, p := z[i], present[i]
			sb[j] -= v
			sbb[j] -= v * v
			n[j] -= p
		}
		limB := lim * qr.t2
		dot, o := (*[TileRows]float64)(dots[TileRows*k:]), (*[TileRows]float64)(out[TileRows*k:])
		for j := range TileRows {
			fn := n[j]
			da, db := fn*saa[j]-sa[j]*sa[j], fn*sbb[j]-sb[j]*sb[j]
			r := (fn*dot[j] - sa[j]*sb[j]) / math.Sqrt(da*db)
			switch {
			case fn < 2:
				r = math.NaN()
			case !(fn > 2 && da > limA[j] && db > limB && math.Abs(r) < sure):
				flagged |= 1 << (TileRows*k + j)
			}
			o[j] = r
		}
	}
	return flagged
}

// Split puts a term t on SPELL's two-bin grid (internal/spell/accum.go has
// its bounds): hi is t rounded to a multiple of 2^-30 and lo the rest
// rounded to a multiple of 2^-70, so sums of either add without rounding.
// The constants are 1.5·2^22 and 1.5·2^-18: a sum with either lands in a
// binade whose ulp is 2^-30 or 2^-70. scoreRange512 spells them out.
func Split(t float64) (hi, lo float64) {
	hi = (t + 0x1.8p22) - 0x1.8p22
	return hi, ((t - hi) + 0x1.8p-18) - 0x1.8p-18
}

// ScoreRange scores rows [r0, r1) of the tiles against q and adds them onto
// a grid, four columns indexed by gene: for each row r with a defined
// correlation (not NaN) to one of q's rows, with m the mean of the defined
// ones — added in ascending query row order, each as Dot and FinishBlock
// compute it — it adds Split(float64(w·m)) to acc[0][g] and acc[1][g] and
// Split(w) to acc[2][g] and acc[3][g], where g = gids[r]. Every gene index
// it writes must lie inside every column.
//
// It stops at the first tile holding a row of the range that FinishBlock
// would flag a pair of with q's rows, and returns that tile: none of its
// rows are added, the rows of the tiles before it are, and so are those of
// every tile before next, the row to call again from. The caller scores the
// flagged tile its own way and adds its rows (AddMeans). It returns -1 and
// r1 when it has added the whole range. The grid's adds are exact, so the
// order in which a caller adds its tiles shows in no bit.
//
// The work is done two tiles a pass by scoreRange512 where start-up chose
// AVX-512 (kernel) — a pass whose first tile is flagged still adds its
// second when that is clean, and next is then past it — and otherwise one
// tile at a time by scoreAsm (AVX2) or scoreGo, with the grid adds in Go;
// the routines give the same bits, and the AVX2 and AVX-512 ones the same
// bits as each other.
func (s *Tiles) ScoreRange(acc *[4][]float64, q *Query, gids []int32, w float64, r0, r1 int) (flagged, next int) {
	s.checkQuery(q)
	if r0 < 0 || r1 > min(s.rows, len(gids)) {
		panic("tilecorr: ScoreRange rows outside the tiles or the gene indices")
	}
	if r0 >= r1 {
		return -1, r1
	}
	if kernel < avx512Kernel {
		return s.scoreTiles(acc, q, gids, w, r0, r1)
	}
	cHi, cLo := Split(w)
	a := rangeArgs{
		zt: s.zt, t1: s.t1, t2: s.t2, missOff: s.missOff, miss: s.miss, nExp: s.nExp,
		buf: q.Buf, rows: q.Rows, unit: &unitLanes, lim: s.lim(),
		gids: gids, acc: acc, accLen: min(len(acc[0]), len(acc[1]), len(acc[2]), len(acc[3])),
		w: w, cHi: cHi, cLo: cLo, r0: r0, r1: r1,
	}
	flagged, nextTile := scoreRange512(&a)
	switch {
	case flagged < -1:
		panic("tilecorr: ScoreRange gene index outside the grid")
	case flagged < 0:
		return -1, r1
	}
	return flagged, min(r1, TileRows*nextTile)
}

// scoreTiles is ScoreRange one tile at a time, for the AVX2 and Go
// routines: scoreAsm or scoreGo over the tile's lanes in the range, then
// AddMeans.
func (s *Tiles) scoreTiles(acc *[4][]float64, q *Query, gids []int32, w float64, r0, r1 int) (flagged, next int) {
	var sum, n [TileRows]float64
	lim := s.lim()
	for t := r0 / TileRows; TileRows*t < r1; t++ {
		lo, hi := max(r0, TileRows*t), min(r1, TileRows*(t+1))
		lanes := uint(1)<<(hi-TileRows*t) - uint(1)<<(lo-TileRows*t)
		tile, t1, t2, cells := s.tileArgs(t)
		var flags uint8
		if kernel >= avx2Kernel {
			flags = uint8(scoreAsm(&sum, &n, tile, t1, t2, cells, q.Buf, q.Rows, &unitLanes, lim, uint64(lanes)))
		} else {
			flags = scoreGo(&sum, &n, tile, t1, t2, cells, q.Buf, q.Rows, lim, uint8(lanes))
		}
		if flags != 0 {
			return t, hi
		}
		AddMeans(acc, &sum, &n, gids, w, lo, hi)
	}
	return -1, r1
}

// AddMeans adds rows [r0, r1) of one tile onto the grid as ScoreRange does,
// from sum and n: each lane's sum of its defined correlations with the
// query's rows, in ascending row order, and their count.
func AddMeans(acc *[4][]float64, sum, n *[TileRows]float64, gids []int32, w float64, r0, r1 int) {
	cHi, cLo := Split(w)
	sumH, sumL, cntH, cntL := acc[0], acc[1], acc[2], acc[3]
	for r := r0; r < r1; r++ {
		if j := r % TileRows; n[j] > 0 {
			// The conversion rounds the product, so that no build fuses it
			// into the grid's first add.
			tHi, tLo := Split(float64(w * (sum[j] / n[j])))
			g := gids[r]
			sumH[g], sumL[g], cntH[g], cntL[g] = sumH[g]+tHi, sumL[g]+tLo, cntH[g]+cHi, cntL[g]+cLo
		}
	}
}

// rangeArgs is what scoreRange512 reads of a ScoreRange call, by name
// (go_asm.h): the tiles' arrays, the gathered query, the grid and the
// range, with Split(w) in cHi and cLo. ScoreRange's checks keep every read
// inside them; the assembly checks each gene index it writes against
// accLen, the shortest column.
type rangeArgs struct {
	zt, t1, t2    []float64
	missOff, miss []int32
	nExp          int
	buf           []float64
	rows          []Row
	unit          *[TileRows][TileRows]float64
	lim           float64
	gids          []int32
	acc           *[4][]float64
	accLen        int
	w, cHi, cLo   float64
	r0, r1        int
}

// DistanceRange writes the Pearson distance 1 − r of each row of q — one
// block, gathered — to every row below it in tiles t0 onwards: for row i of
// q and each tile t ≥ t0 with a lane j below it (TileRows·t + j < i), it
// sets dst[i·stride + TileRows·t + j] to 1 − r, r as Dot and FinishBlock
// compute it. The tiles met end with the last one holding a row below q's
// largest.
//
// It stops at the first tile with such a lane that FinishBlock flags or
// leaves NaN, and returns that tile: every other lane of the tiles before
// next, the tile to call again from, is written, and the stopped tile's
// lanes hold anything at all. The caller computes that tile its own way. It
// returns -1 and the end when every tile is written.
//
// The work is done two tiles a pass by distRange512 where start-up chose
// AVX-512 (kernel) — a pass whose first tile stops still writes its second
// when that is clean, and next is then past it — and otherwise one tile at
// a time by Dot and FinishBlock (distTiles); the AVX2 and AVX-512 routines
// give the same bits.
func (s *Tiles) DistanceRange(dst []float64, stride int, q *Query, t0 int) (stop, next int) {
	s.checkQuery(q)
	if len(q.Rows) > BlockRows || t0 < 0 || stride < max(1, s.rows) || len(dst)/stride < s.rows {
		panic("tilecorr: DistanceRange arguments outside the tiles or the matrix")
	}
	end := 0
	for _, r := range q.Rows {
		if r.Index < 0 || r.Index >= s.rows {
			panic("tilecorr: DistanceRange row outside the tiles")
		}
		end = max(end, (r.Index+TileRows-1)/TileRows)
	}
	if t0 >= end {
		return -1, end
	}
	if kernel < avx512Kernel {
		return s.distTiles(dst, stride, q, t0, end)
	}
	return distRange512(&distArgs{
		zt: s.zt, t1: s.t1, t2: s.t2, missOff: s.missOff, miss: s.miss, nExp: s.nExp,
		buf: q.Buf, rows: q.Rows, unit: &unitLanes, lim: s.lim(),
		dst: dst, stride: stride, t0: t0, end: end,
	})
}

// distTiles is DistanceRange one tile at a time, for the AVX2 and Go
// routines: Dot, FinishBlock, then each row's lanes below it.
func (s *Tiles) distTiles(dst []float64, stride int, q *Query, t, end int) (stop, next int) {
	var dots, rs [BlockRows * TileRows]float64
	z, _, _ := q.Block(0, s.nExp)
	for ; t < end; t++ {
		Dot(&dots, s.Tile(t), z, s.nExp)
		flagged := s.FinishBlock(&rs, &dots, t, q, 0)
		bad := false
		for k, r := range q.Rows {
			live := r.Index - TileRows*t // the tile's lanes below row r
			if live <= 0 {
				continue
			}
			live = min(live, TileRows)
			below := uint8(flagged>>(TileRows*k)) & (1<<live - 1)
			out := dst[r.Index*stride+TileRows*t:][:live]
			for j, c := range rs[TileRows*k:][:live] {
				if below>>j&1 != 0 || math.IsNaN(c) {
					bad = true
				} else {
					out[j] = 1 - c
				}
			}
		}
		if bad {
			return t, t + 1
		}
	}
	return -1, end
}

// distArgs is what distRange512 reads of a DistanceRange call, by name
// (go_asm.h): the tiles' arrays, the gathered block, the matrix and its
// stride, and the tiles [t0, end) to meet. DistanceRange's checks keep
// every read and every lane written inside them.
type distArgs struct {
	zt, t1, t2    []float64
	missOff, miss []int32
	nExp          int
	buf           []float64
	rows          []Row
	unit          *[TileRows][TileRows]float64
	lim           float64
	dst           []float64
	stride        int
	t0, end       int
}

// scoreGo is one tile of ScoreRange's arithmetic in Go, and the assembly's
// oracle: per block, dotGo over the live rows, finishGo, then the defined
// correlations added row by row into sum and n; the result has bit j set
// for each lane j of lanes holding a flagged pair. Like scoreAsm it stops
// after the first block that flags one.
func scoreGo(sum, n *[TileRows]float64, tile []float64, t1, t2 *[TileRows]float64, cells []int32, buf []float64, rows []Row, lim float64, lanes uint8) (flagged uint8) {
	nExp := len(tile) / TileRows
	*sum, *n = [TileRows]float64{}, [TileRows]float64{}
	var dots, corr [BlockRows * TileRows]float64
	for b := 0; BlockRows*b < len(rows) && flagged == 0; b++ {
		blk := buf[2*BlockRows*nExp*b:]
		live := rows[BlockRows*b : min(BlockRows*(b+1), len(rows))]
		dotGo(&dots, tile, blk, nExp, len(live))
		f := finishGo(&corr, &dots, tile, t1, t2, cells, blk[:BlockRows*nExp], blk[BlockRows*nExp:], live, lim)
		for k := range live {
			flagged |= uint8(f>>(TileRows*k)) & lanes
			for j, c := range corr[TileRows*k : TileRows*(k+1)] {
				if c == c {
					sum[j] += c
					n[j]++
				}
			}
		}
	}
	return flagged
}
