package spell

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"forestview/internal/stats"
)

// ReferenceSearch is the original SPELL scoring path, retained as the
// golden standard the dense kernel is verified against (parity to 1e-12 in
// the package tests) and as the baseline BenchmarkF4_SPELLReference
// measures the kernel's speedup from. It shares nothing with the kernel's
// slabs: it z-scores the datasets' own rows on every call, computes every
// Pearson pair with the NaN-pairwise statistic, and merges per-dataset
// map[string]float64 score tables under one mutex, exactly as the engine
// did before the kernel rewrite. Do not optimize it: its value is being
// obviously equivalent to the SPELL definition.
//
// Results match Search up to floating-point accumulation order; the query
// contract (internal canonicalization, error cases) is identical.
func (e *Engine) ReferenceSearch(query []string, opt Options) (*Result, error) {
	query = CanonicalQuery(query)
	if len(query) == 0 {
		return nil, errors.New("spell: empty query")
	}
	qset := make(map[string]bool, len(query))
	qgids := make([]int, 0, len(query))
	for _, q := range query {
		qset[q] = true
		if gi, ok := e.gid[q]; ok {
			qgids = append(qgids, gi)
		}
	}
	if len(qgids) == 0 {
		return nil, fmt.Errorf("spell: none of the %d query genes occur in the compendium", len(query))
	}

	par := opt.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(e.slabs) {
		par = len(e.slabs)
	}

	// Stage 1: per-dataset query coherence.
	type dsScore struct {
		coherence float64
		present   int
	}
	scores := make([]dsScore, len(e.slabs))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for di := range work {
				rows := e.referenceQueryRows(di, qgids)
				scores[di] = dsScore{
					coherence: referenceCoherence(rows),
					present:   len(rows),
				}
			}
		}()
	}
	for di := range e.slabs {
		work <- di
	}
	close(work)
	wg.Wait()

	weights := make([]float64, len(e.slabs))
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
	geneScore := make(map[string]float64, len(e.order))
	geneWeight := make(map[string]float64, len(e.order))
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
				local := e.referenceScoreDataset(di, qgids)
				mu.Lock()
				for id, s := range local {
					geneScore[id] += weights[di] * s
					geneWeight[id] += weights[di]
				}
				mu.Unlock()
			}
		}()
	}
	for di := range e.slabs {
		work2 <- di
	}
	close(work2)
	wg.Wait()

	res := &Result{Query: query}
	for di := range e.slabs {
		res.Datasets = append(res.Datasets, DatasetRank{
			Index:          di,
			Name:           e.datasets[di].Name,
			Weight:         weights[di],
			QueryCoherence: scores[di].coherence,
			QueryPresent:   scores[di].present,
		})
	}
	sort.SliceStable(res.Datasets, func(a, b int) bool {
		return res.Datasets[a].Weight > res.Datasets[b].Weight
	})

	for gi, id := range e.order {
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
			Name:    e.names[gi],
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
// in dataset di. A gene ID the dataset carries twice resolves to its last
// row, as a map from ID to row would.
func (e *Engine) referenceQueryRows(di int, qgids []int) [][]float64 {
	ds := e.datasets[di]
	var rows [][]float64
	for _, gi := range qgids {
		for g := ds.NumGenes() - 1; g >= 0; g-- {
			if ds.Genes[g].ID == e.order[gi] {
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

// referenceScoreDataset returns, for every gene in dataset di, its mean
// correlation to the query genes present there, in a string-keyed map.
func (e *Engine) referenceScoreDataset(di int, qgids []int) map[string]float64 {
	qrows := e.referenceQueryRows(di, qgids)
	if len(qrows) == 0 {
		return nil
	}
	ds := e.datasets[di]
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
