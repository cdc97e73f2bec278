package oracle

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"forestview/internal/microarray"
	"forestview/internal/stats"
)

// SearchOptions are the search options the ranking depends on.
type SearchOptions struct {
	// MaxGenes caps the gene ranking (0 = all genes).
	MaxGenes int
	// IncludeQuery keeps the query genes in the gene ranking.
	IncludeQuery bool
	// UniformWeights weighs every dataset that measures a query gene
	// alike, instead of by the query's coherence there.
	UniformWeights bool
}

// DatasetRank is one dataset of a Ranking.
type DatasetRank struct {
	Index          int
	Name           string
	Weight         float64
	QueryCoherence float64
	QueryPresent   int
}

// GeneRank is one gene of a Ranking.
type GeneRank struct {
	ID      string
	Name    string
	Score   float64
	IsQuery bool
}

// Ranking is a SPELL search's answer: the datasets by weight, then the
// genes by weighted mean correlation to the query.
type Ranking struct {
	Query    []string
	Datasets []DatasetRank
	Genes    []GeneRank
}

// Search ranks dss for a query by SPELL's definition. The query must be
// canonical: trimmed, without duplicates, sorted. Genes are indexed in the
// first-seen order over dss; every row is z-scored on every call; every
// Pearson pair is computed from scratch with the NaN-pairwise statistic;
// a dataset's weight is its query coherence (the mean Fisher-z pairwise
// correlation of the query rows), clamped at zero and normalized, or, when
// no dataset is coherent, equal over those measuring a query gene; a
// gene's score is the weighted mean, over the datasets that weigh, of its
// mean correlation to the query rows there. Score sums run over the
// datasets in order.
func Search(dss []*microarray.Dataset, query []string, opt SearchOptions) (*Ranking, error) {
	if len(query) == 0 {
		return nil, errors.New("spell: empty query")
	}
	seen := make(map[string]bool)
	var order, names []string
	for _, ds := range dss {
		for _, gene := range ds.Genes {
			if !seen[gene.ID] {
				seen[gene.ID] = true
				order, names = append(order, gene.ID), append(names, gene.Name)
			}
		}
	}
	qset := make(map[string]bool, len(query))
	var qids []string
	for _, q := range query {
		qset[q] = true
		if seen[q] {
			qids = append(qids, q)
		}
	}
	if len(qids) == 0 {
		return nil, fmt.Errorf("spell: none of the %d query genes occur in the compendium", len(query))
	}

	res := &Ranking{Query: query}
	weights := make([]float64, len(dss))
	total := 0.0
	for di, ds := range dss {
		rows := queryRows(ds, qids)
		d := DatasetRank{Index: di, Name: ds.Name, QueryCoherence: coherence(rows), QueryPresent: len(rows)}
		res.Datasets = append(res.Datasets, d)
		w := d.QueryCoherence
		if opt.UniformWeights {
			w = 0
			if d.QueryPresent > 0 {
				w = 1
			}
		}
		if math.IsNaN(w) || w < 0 {
			w = 0
		}
		weights[di] = w
		total += w
	}
	if total == 0 {
		for di, d := range res.Datasets {
			if d.QueryPresent > 0 {
				weights[di] = 1
				total++
			}
		}
		if total == 0 {
			return nil, errors.New("spell: query genes absent from every dataset")
		}
	}
	for di := range weights {
		weights[di] /= total
		res.Datasets[di].Weight = weights[di]
	}
	sort.SliceStable(res.Datasets, func(a, b int) bool {
		return res.Datasets[a].Weight > res.Datasets[b].Weight
	})

	geneScore := make(map[string]float64, len(order))
	geneWeight := make(map[string]float64, len(order))
	for di, ds := range dss {
		if weights[di] == 0 {
			continue
		}
		for id, s := range scoreDataset(ds, qids) {
			geneScore[id] += weights[di] * s
			geneWeight[id] += weights[di]
		}
	}
	for gi, id := range order {
		isQ := qset[id]
		if w := geneWeight[id]; w != 0 && (!isQ || opt.IncludeQuery) {
			res.Genes = append(res.Genes, GeneRank{ID: id, Name: names[gi], Score: geneScore[id] / w, IsQuery: isQ})
		}
	}
	sort.SliceStable(res.Genes, func(a, b int) bool {
		return res.Genes[a].Score > res.Genes[b].Score
	})
	if opt.MaxGenes > 0 && len(res.Genes) > opt.MaxGenes {
		res.Genes = res.Genes[:opt.MaxGenes]
	}
	return res, nil
}

// zscores returns xs z-scored, in a new slice.
func zscores(xs []float64) []float64 {
	out := make([]float64, len(xs))
	stats.ZScoresInto(out, xs)
	return out
}

// queryRows collects the z-scored rows of the query genes present in ds. A
// gene ID the dataset carries twice resolves to its last row, as a map
// from ID to row would.
func queryRows(ds *microarray.Dataset, qids []string) [][]float64 {
	var rows [][]float64
	for _, id := range qids {
		for g := ds.NumGenes() - 1; g >= 0; g-- {
			if ds.Genes[g].ID == id {
				rows = append(rows, zscores(ds.Row(g)))
				break
			}
		}
	}
	return rows
}

// coherence is the mean Fisher-z pairwise Pearson correlation of the query
// rows, NaN with fewer than two rows or no defined pair.
func coherence(rows [][]float64) float64 {
	s, n := 0.0, 0
	for i := 0; i < len(rows); i++ {
		for j := i + 1; j < len(rows); j++ {
			if r := stats.Pearson(rows[i], rows[j]); !math.IsNaN(r) {
				s += stats.FisherZ(r)
				n++
			}
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return s / float64(n)
}

// scoreDataset returns, for every gene in ds, its mean correlation to the
// query genes present there.
func scoreDataset(ds *microarray.Dataset, qids []string) map[string]float64 {
	qrows := queryRows(ds, qids)
	if len(qrows) == 0 {
		return nil
	}
	out := make(map[string]float64, ds.NumGenes())
	for g := 0; g < ds.NumGenes(); g++ {
		row := zscores(ds.Row(g))
		s, n := 0.0, 0
		for _, qr := range qrows {
			if r := stats.Pearson(row, qr); !math.IsNaN(r) {
				s += r
				n++
			}
		}
		if n > 0 {
			out[ds.Genes[g].ID] = s / float64(n)
		}
	}
	return out
}
