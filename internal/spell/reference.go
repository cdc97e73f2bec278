package spell

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"forestview/internal/microarray"
	"forestview/internal/stats"
)

// ReferenceSearch is the original SPELL scoring path, retained as the
// golden standard the dense kernel is verified against (parity to 1e-12 in
// the package tests) and as the baseline BenchmarkF4_SPELLReference
// measures the kernel's speedup from. It shares nothing with an engine: it
// takes the rows it scores, indexes their genes in the first-seen order an
// engine over dss assigns, z-scores the rows on every call, computes every
// Pearson pair with the NaN-pairwise statistic, and merges per-dataset
// map[string]float64 score tables under one mutex, exactly as the engine
// did before the kernel rewrite. Do not optimize it: its value is being
// obviously equivalent to the SPELL definition.
//
// Results match Search on NewEngine(dss) up to floating-point accumulation
// order; the query contract (internal canonicalization, error cases) is
// identical.
func ReferenceSearch(dss []*microarray.Dataset, query []string, opt Options) (*Result, error) {
	query = CanonicalQuery(query)
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

	par := opt.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(dss) {
		par = len(dss)
	}

	// Stage 1: per-dataset query coherence.
	type dsScore struct {
		coherence float64
		present   int
	}
	scores := make([]dsScore, len(dss))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for di := range work {
				rows := referenceQueryRows(dss[di], qids)
				scores[di] = dsScore{
					coherence: referenceCoherence(rows),
					present:   len(rows),
				}
			}
		}()
	}
	for di := range dss {
		work <- di
	}
	close(work)
	wg.Wait()

	weights := make([]float64, len(dss))
	total := 0.0
	for di, s := range scores {
		w := s.coherence
		if opt.UniformWeights {
			if s.present > 0 {
				w = 1
			} else {
				w = 0
			}
		}
		if math.IsNaN(w) || w < 0 {
			w = 0
		}
		weights[di] = w
		total += w
	}
	if total == 0 {
		n := 0
		for di, s := range scores {
			if s.present > 0 {
				weights[di] = 1
				n++
			}
		}
		if n == 0 {
			return nil, errors.New("spell: query genes absent from every dataset")
		}
		total = float64(n)
	}
	for di := range weights {
		weights[di] /= total
	}

	// Stage 2: weighted gene scores in string-keyed maps, merged under a
	// mutex at dataset granularity.
	geneScore := make(map[string]float64, len(order))
	geneWeight := make(map[string]float64, len(order))
	var mu sync.Mutex
	work2 := make(chan int)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for di := range work2 {
				if weights[di] == 0 {
					continue
				}
				local := referenceScoreDataset(dss[di], qids)
				mu.Lock()
				for id, s := range local {
					geneScore[id] += weights[di] * s
					geneWeight[id] += weights[di]
				}
				mu.Unlock()
			}
		}()
	}
	for di := range dss {
		work2 <- di
	}
	close(work2)
	wg.Wait()

	res := &Result{Query: query}
	for di, ds := range dss {
		res.Datasets = append(res.Datasets, DatasetRank{
			Index:          di,
			Name:           ds.Name,
			Weight:         weights[di],
			QueryCoherence: scores[di].coherence,
			QueryPresent:   scores[di].present,
		})
	}
	sort.SliceStable(res.Datasets, func(a, b int) bool {
		return res.Datasets[a].Weight > res.Datasets[b].Weight
	})

	for gi, id := range order {
		isQ := qset[id]
		if isQ && !opt.IncludeQuery {
			continue
		}
		w := geneWeight[id]
		if w == 0 {
			continue
		}
		res.Genes = append(res.Genes, GeneRank{
			ID:      id,
			Name:    names[gi],
			Score:   geneScore[id] / w,
			IsQuery: isQ,
		})
	}
	sort.SliceStable(res.Genes, func(a, b int) bool {
		return res.Genes[a].Score > res.Genes[b].Score
	})
	if opt.MaxGenes > 0 && len(res.Genes) > opt.MaxGenes {
		res.Genes = res.Genes[:opt.MaxGenes]
	}
	return res, nil
}

// referenceQueryRows collects the z-scored rows of the query genes present
// in ds. A gene ID the dataset carries twice resolves to its last row, as a
// map from ID to row would.
func referenceQueryRows(ds *microarray.Dataset, qids []string) [][]float64 {
	var rows [][]float64
	for _, id := range qids {
		for g := ds.NumGenes() - 1; g >= 0; g-- {
			if ds.Genes[g].ID == id {
				rows = append(rows, stats.ZScores(ds.Row(g)))
				break
			}
		}
	}
	return rows
}

// referenceCoherence is the mean Fisher-z pairwise Pearson correlation of
// the query rows, each pair computed from scratch with stats.Pearson.
func referenceCoherence(rows [][]float64) float64 {
	if len(rows) < 2 {
		return math.NaN()
	}
	s, n := 0.0, 0
	for i := 0; i < len(rows); i++ {
		for j := i + 1; j < len(rows); j++ {
			r := stats.Pearson(rows[i], rows[j])
			if math.IsNaN(r) {
				continue
			}
			s += stats.FisherZ(r)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return s / float64(n)
}

// referenceScoreDataset returns, for every gene in ds, its mean correlation
// to the query genes present there, in a string-keyed map.
func referenceScoreDataset(ds *microarray.Dataset, qids []string) map[string]float64 {
	qrows := referenceQueryRows(ds, qids)
	if len(qrows) == 0 {
		return nil
	}
	out := make(map[string]float64, ds.NumGenes())
	for g := 0; g < ds.NumGenes(); g++ {
		row := stats.ZScores(ds.Row(g))
		s, n := 0.0, 0
		for _, qr := range qrows {
			r := stats.Pearson(row, qr)
			if math.IsNaN(r) {
				continue
			}
			s += r
			n++
		}
		if n > 0 {
			out[ds.Genes[g].ID] = s / float64(n)
		}
	}
	return out
}
