package spell

import (
	"math"

	"forestview/internal/microarray"
	"forestview/internal/stats"
)

// slab is one dataset of the compendium in scoring-ready form: every
// z-scored row back to back in one contiguous []float64 with missing cells
// stored as 0, so a search streams through the dataset with no pointer
// chasing and a dot product of two rows needs no per-cell test — a missing
// cell on either side contributes exactly 0 to it. What the zero-fill hides
// is kept beside the rows: each row's totals over its observed cells and the
// sorted list of its missing columns, from which pairCorr recovers the exact
// moments over the cells a pair observes jointly.
type slab struct {
	nExp  int
	rowOf []int32   // global gene index -> row in this dataset, -1 if absent
	z0    []float64 // row r occupies z0[r*nExp : (r+1)*nExp]
	tot   []rowTotals
	// Row r's missing columns, ascending: miss[missOff[r]:missOff[r+1]].
	missOff []int32
	miss    []int32
}

// rowTotals are one row's moments over its observed cells.
type rowTotals struct {
	t1, t2 float64 // Σz0 and Σz0²
	// inv is 1/sqrt(nExp·t2 − t1²), the row's variance term when a pair has
	// nothing to correct — z0 times inv is the row's unit form, for a
	// complete row. 0 when that term fails varGuard (a constant row).
	inv float64
}

// buildSlab prepares ds against the engine's global gene index. numGenes is
// the size of the global index (len of the engine's order slice). When a
// hand-built dataset carries a gene ID twice, rowOf keeps the last row.
func buildSlab(ds *microarray.Dataset, gid map[string]int, numGenes int) *slab {
	nG, nE := ds.NumGenes(), ds.NumExperiments()
	s := &slab{
		nExp:    nE,
		rowOf:   make([]int32, numGenes),
		z0:      make([]float64, nG*nE),
		tot:     make([]rowTotals, nG),
		missOff: make([]int32, nG+1),
	}
	for i := range s.rowOf {
		s.rowOf[i] = -1
	}
	for g := 0; g < nG; g++ {
		s.rowOf[gid[ds.Genes[g].ID]] = int32(g)
		zr := s.z0[g*nE : (g+1)*nE]
		stats.ZScoresInto(zr, ds.Row(g))
		var t rowTotals
		for i, v := range zr {
			if math.IsNaN(v) {
				zr[i] = 0
				s.miss = append(s.miss, int32(i))
				continue
			}
			t.t1 += v
			t.t2 += v * v
		}
		if d := float64(nE)*t.t2 - t.t1*t.t1; d > varGuard*float64(nE)*t.t2 {
			t.inv = 1 / math.Sqrt(d)
		}
		s.tot[g] = t
		s.missOff[g+1] = int32(len(s.miss))
	}
	return s
}

// rowView is one slab row as pairCorr reads it.
type rowView struct {
	z    []float64 // zero-filled z-scores
	miss []int32   // missing columns, ascending
	rowTotals
}

func (s *slab) view(r int32) rowView {
	return rowView{
		z:         s.z0[int(r)*s.nExp : (int(r)+1)*s.nExp],
		miss:      s.miss[s.missOff[r]:s.missOff[r+1]],
		rowTotals: s.tot[r],
	}
}

// appendQueryViews appends to q the rows of this dataset measuring the
// given global gene indices.
func (s *slab) appendQueryViews(q []rowView, qgids []int) []rowView {
	for _, gi := range qgids {
		if r := s.rowOf[gi]; r >= 0 {
			q = append(q, s.view(r))
		}
	}
	return q
}

// varGuard is the share of a row's full sum of squares its variance term
// over a pair's joint cells must keep for the one-pass moments to be
// trusted. Rounding in n·Σz² − (Σz)² is a few ulps of nExp·t2, so above the
// guard the correlation is good to ~1e-14; below it (the joint cells are
// nearly constant, or exactly so) the pair is recomputed by exactCorr.
const varGuard = 1.0 / 64

// pairCorr is the Pearson correlation of two rows of one slab over the
// cells both observe — equal to stats.Pearson on the NaN-bearing z-rows to
// rounding, and NaN exactly when it is. Because missing cells are stored as
// 0, Dot(a, b) already is Σab over the joint cells; each row's Σz and Σz²
// over the joint cells are its stored totals minus its values at the other
// row's missing columns. One dot product plus O(missing cells) corrections,
// no per-cell branch.
func pairCorr(a, b *rowView) float64 {
	n := len(a.z)
	sab := stats.Dot(a.z, b.z)
	sa, saa, sb, sbb := a.t1, a.t2, b.t1, b.t2
	if len(a.miss)+len(b.miss) == 0 {
		// Nothing to correct: both variance terms are the rows' own.
		if inv := a.inv * b.inv; inv != 0 {
			return stats.Clamp((float64(n)*sab-sa*sb)*inv, -1, 1)
		}
	}
	for _, i := range b.miss {
		v := a.z[i]
		sa -= v
		saa -= v * v
	}
	for _, i := range a.miss {
		v := b.z[i]
		sb -= v
		sbb -= v * v
	}
	n -= len(a.miss) + len(b.miss) - overlap(a.miss, b.miss)
	if n < 2 {
		return math.NaN()
	}
	fn := float64(n)
	da, db := fn*saa-sa*sa, fn*sbb-sb*sb
	lim := varGuard * float64(len(a.z))
	if !(da > lim*a.t2 && db > lim*b.t2) {
		return exactCorr(a, b)
	}
	return stats.Clamp((fn*sab-sa*sb)/math.Sqrt(da*db), -1, 1)
}

// overlap counts the columns two ascending lists share.
func overlap(xs, ys []int32) int {
	n := 0
	for i, j := 0, 0; i < len(xs) && j < len(ys); {
		switch {
		case xs[i] < ys[j]:
			i++
		case xs[i] > ys[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// exactCorr is stats.Pearson itself on the pair's joint cells, for the rare
// pair pairCorr hands it: a's row with NaN put back at every column either
// row is missing (b's zeros there are then skipped with them), so the value
// — and the NaN — are the NaN-pairwise statistic's by construction.
func exactCorr(a, b *rowView) float64 {
	var buf [64]float64 // keeps the copy on the stack for all but the widest datasets
	x := append(buf[:0], a.z...)
	for _, i := range a.miss {
		x[i] = math.NaN()
	}
	for _, i := range b.miss {
		x[i] = math.NaN()
	}
	return stats.Pearson(x, b.z)
}
