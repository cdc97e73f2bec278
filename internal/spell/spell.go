// Package spell reimplements SPELL (Serial Patterns of Expression Levels
// Locator, Hibbs et al.), the similarity-search engine the paper integrates
// with ForestView (Section 3, Figure 4).
//
// Given a small set of query genes, SPELL (1) weights every dataset in a
// large compendium by how informative it is about the query — how coherent
// the query genes' expression is within that dataset — and (2) ranks every
// other gene by its weighted correlation to the query across the
// compendium. The output is exactly what ForestView visualizes: an ordered
// list of datasets and an ordered list of genes.
//
// The scoring core is a dense, integer-indexed kernel: the engine assigns
// every distinct gene ID a global integer once, stores each dataset's
// z-scored rows in one contiguous slab with precomputed centered unit-norm
// forms (see slab.go), and accumulates gene scores into per-worker dense
// vectors merged lock-free after the workers drain (see accum.go). For
// complete rows, Pearson correlation collapses to a single dot product;
// rows with missing values fall back to the NaN-pairwise statistic. The
// retained naive scorer in reference.go is the golden standard the kernel
// is tested against.
package spell

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	"forestview/internal/microarray"
	"forestview/internal/stats"
)

// Options tune a search.
type Options struct {
	// MaxGenes caps the returned gene ranking (0 = all genes).
	MaxGenes int
	// IncludeQuery keeps the query genes themselves in the gene ranking
	// (ForestView highlights them; the web interface omitted them).
	IncludeQuery bool
	// Parallelism bounds the worker pool used to score datasets
	// concurrently (0 = GOMAXPROCS).
	Parallelism int
	// UniformWeights disables SPELL's signature dataset weighting and
	// averages correlations over every dataset measuring the query —
	// the naive-search baseline the weighting ablation compares against.
	UniformWeights bool
}

// DatasetRank is one entry of the ranked dataset list.
type DatasetRank struct {
	// Index into the engine's dataset list.
	Index int
	// Name of the dataset.
	Name string
	// Weight is the normalized informativeness of the dataset for the
	// query (weights sum to 1 over the compendium).
	Weight float64
	// QueryCoherence is the raw mean Fisher-z pairwise correlation of the
	// query genes within this dataset, before normalization. NaN when the
	// dataset measures fewer than two query genes (coherence is a pairwise
	// statistic).
	QueryCoherence float64
	// QueryPresent counts how many query genes the dataset measures.
	QueryPresent int
}

// MarshalJSON emits an undefined QueryCoherence (NaN — the dataset measures
// fewer than two query genes) as null: NaN is not representable in JSON and
// used to kill the encoder mid-response on every HTTP entry point, turning
// such searches into empty 200s.
func (d DatasetRank) MarshalJSON() ([]byte, error) {
	type alias DatasetRank // no methods: avoids marshal recursion
	out := struct {
		alias
		QueryCoherence *float64
	}{alias: alias(d)}
	if !math.IsNaN(d.QueryCoherence) {
		out.QueryCoherence = &d.QueryCoherence
	}
	return json.Marshal(out)
}

// GeneRank is one entry of the ranked gene list.
type GeneRank struct {
	ID    string
	Name  string
	Score float64
	// IsQuery marks genes that were part of the query.
	IsQuery bool
}

// Result of a SPELL search.
type Result struct {
	// Query is the canonicalized query the engine actually ran: trimmed,
	// deduplicated, sorted (see CanonicalQuery).
	Query    []string
	Datasets []DatasetRank
	Genes    []GeneRank
}

// Engine holds a compendium prepared for repeated searches. Construction
// assigns every distinct gene ID a global integer index and z-transforms
// every gene vector once — so correlations are comparable across datasets
// with different dynamic ranges, as SPELL prescribes — storing each dataset
// as a contiguous slab ready for the dense kernel. An Engine is immutable
// after NewEngine and safe for concurrent Search calls.
type Engine struct {
	datasets []*microarray.Dataset
	order    []string       // global gene index -> gene ID, stable compendium order
	names    []string       // global gene index -> display name
	gid      map[string]int // gene ID -> global index
	slabs    []*slab
}

// NewEngine prepares the given datasets for searching. Datasets are not
// modified; the engine keeps z-scored copies.
func NewEngine(dss []*microarray.Dataset) (*Engine, error) {
	if len(dss) == 0 {
		return nil, errors.New("spell: empty compendium")
	}
	e := &Engine{
		datasets: dss,
		gid:      make(map[string]int),
		slabs:    make([]*slab, len(dss)),
	}
	// Pass 1: the global gene index, in stable first-seen order.
	for _, ds := range dss {
		for g := 0; g < ds.NumGenes(); g++ {
			gene := ds.Genes[g]
			if _, ok := e.gid[gene.ID]; !ok {
				e.gid[gene.ID] = len(e.order)
				e.order = append(e.order, gene.ID)
				e.names = append(e.names, gene.Name)
			}
		}
	}
	// Pass 2: per-dataset slabs, built concurrently — each slot is written
	// by exactly one worker.
	par := runtime.GOMAXPROCS(0)
	if par > len(dss) {
		par = len(dss)
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for di := range work {
				e.slabs[di] = buildSlab(dss[di], e.gid, len(e.order))
			}
		}()
	}
	for di := range dss {
		work <- di
	}
	close(work)
	wg.Wait()
	return e, nil
}

// NumDatasets returns the compendium size.
func (e *Engine) NumDatasets() int { return len(e.datasets) }

// NumGenes returns the number of distinct gene IDs across the compendium.
func (e *Engine) NumGenes() int { return len(e.order) }

// GeneIDs returns every distinct gene ID in stable compendium order. The
// query daemon uses it as the enrichment background when no explicit
// universe is supplied.
func (e *Engine) GeneIDs() []string {
	return append([]string(nil), e.order...)
}

// MsgSingleGeneQuery is the user-facing explanation every HTTP entry point
// returns (with a 422) for a query that collapses to a single distinct
// gene: coherence is a pairwise statistic, so a one-gene query has no
// defined dataset weighting. One shared constant keeps the daemon and the
// standalone spellweb server from drifting apart.
const MsgSingleGeneQuery = "single-gene queries are not supported: SPELL's dataset weighting needs at least two distinct query genes to measure coherence; add another gene"

// CanonicalQuery normalizes a query gene list: IDs are trimmed, empties and
// duplicates dropped, and the remainder sorted. Search results are
// insensitive to query order and multiplicity, so the canonical form is a
// correct cache key for a search — two requests with the same gene set in
// any order canonicalize identically.
func CanonicalQuery(ids []string) []string {
	seen := make(map[string]bool, len(ids))
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if id == "" || seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// dsInfo is the stage-1 result for one dataset.
type dsInfo struct {
	rows      []int32 // dataset rows measuring query genes
	allFast   bool    // every query row has a unit form
	coherence float64
}

// searchPar clamps a requested parallelism to the compendium size.
func (e *Engine) searchPar(requested int) int {
	par := requested
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(e.slabs) {
		par = len(e.slabs)
	}
	return par
}

// queryInfos runs stage 1 — per-dataset query rows and raw coherence —
// concurrently over par workers. One result slot per dataset, no shared
// mutable state. Workers stop pulling datasets once ctx is canceled; the
// caller must check ctx.Err() before trusting the result.
func (e *Engine) queryInfos(ctx context.Context, qgids []int, par int) []dsInfo {
	return e.queryInfosSubset(ctx, qgids, par, nil)
}

// queryInfosSubset is queryInfos over a subset of dataset indexes (nil =
// all). The result is still one slot per dataset of the engine; slots
// outside the subset stay zero and must not be read.
func (e *Engine) queryInfosSubset(ctx context.Context, qgids []int, par int, subset []int) []dsInfo {
	infos := make([]dsInfo, len(e.slabs))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for di := range work {
				if ctx.Err() != nil {
					continue // drain without computing
				}
				sl := e.slabs[di]
				rows, allFast := sl.queryRows(qgids)
				infos[di] = dsInfo{rows: rows, allFast: allFast, coherence: coherence(sl, rows)}
			}
		}()
	}
	if subset == nil {
		for di := range e.slabs {
			work <- di
		}
	} else {
		for _, di := range subset {
			work <- di
		}
	}
	close(work)
	wg.Wait()
	return infos
}

// Search runs a SPELL query. At least one query gene must be present
// somewhere in the compendium.
//
// The query is canonicalized internally (trimmed, deduplicated): a
// duplicated query gene must not add Pearson(row, row) = 1 pairs to a
// dataset's coherence — that would inflate its weight by FisherZ(1-ε) per
// duplicate pair and distort every rank — so no entry point can be exposed
// to the duplicate-query bug regardless of whether it canonicalizes.
func (e *Engine) Search(query []string, opt Options) (*Result, error) {
	return e.SearchCtx(context.Background(), query, opt)
}

// SearchCtx is Search with cooperative cancellation: both per-dataset
// stages stop pulling work once ctx is done and the context error is
// returned, so a hung-up client stops costing scan CPU (the same contract
// as PartialSearchCtx).
func (e *Engine) SearchCtx(ctx context.Context, query []string, opt Options) (*Result, error) {
	query = CanonicalQuery(query)
	if len(query) == 0 {
		return nil, errors.New("spell: empty query")
	}
	qgids := make([]int, 0, len(query))
	qmask := make([]bool, len(e.order))
	for _, q := range query {
		if gi, ok := e.gid[q]; ok {
			qgids = append(qgids, gi)
			qmask[gi] = true
		}
	}
	if len(qgids) == 0 {
		return nil, fmt.Errorf("spell: none of the %d query genes occur in the compendium", len(query))
	}

	par := e.searchPar(opt.Parallelism)

	// Stage 1: per-dataset query rows and coherence.
	infos := e.queryInfos(ctx, qgids, par)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Normalize positive coherence into weights. A dataset where the query
	// genes are uncorrelated (or absent) contributes nothing, exactly the
	// behaviour that lets SPELL ignore irrelevant studies.
	weights := make([]float64, len(e.slabs))
	total := 0.0
	for di := range infos {
		w := infos[di].coherence
		if opt.UniformWeights {
			// Ablation baseline: every dataset measuring the query counts
			// equally, informative or not.
			if len(infos[di].rows) > 0 {
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
		// Degenerate query (single gene or incoherent everywhere): fall
		// back to uniform weights over datasets measuring the query.
		n := 0
		for di := range infos {
			if len(infos[di].rows) > 0 {
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

	// Stage 2: weighted gene scores, concurrently per dataset. Every worker
	// accumulates into its own dense vector pair indexed by global gene id;
	// the vectors merge by plain addition once the workers drain — no lock,
	// no map, no string hashing on the hot path.
	accs := make([]*accum, par)
	var wg sync.WaitGroup
	work2 := make(chan int)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var acc *accum
			for di := range work2 {
				if weights[di] == 0 || len(infos[di].rows) == 0 || ctx.Err() != nil {
					continue
				}
				if acc == nil {
					acc = newAccum(len(e.order))
				}
				scoreInto(e.slabs[di], infos[di].rows, infos[di].allFast, weights[di], acc)
			}
			accs[w] = acc
		}(w)
	}
	for di := range e.slabs {
		work2 <- di
	}
	close(work2)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	merged := mergeAccums(accs)

	res := &Result{Query: query}
	for di := range e.slabs {
		res.Datasets = append(res.Datasets, DatasetRank{
			Index:          di,
			Name:           e.datasets[di].Name,
			Weight:         weights[di],
			QueryCoherence: infos[di].coherence,
			QueryPresent:   len(infos[di].rows),
		})
	}
	sort.SliceStable(res.Datasets, func(a, b int) bool {
		return res.Datasets[a].Weight > res.Datasets[b].Weight
	})

	// Rank by sorting compact gene indices rather than GeneRank structs:
	// stably swapping 4-byte ids costs a fraction of shuffling 40-byte
	// structs full of string pointers (which dominated the profile), and
	// only the entries that survive the MaxGenes cut are materialized.
	var order []int32
	if merged != nil {
		order = make([]int32, 0, len(e.order))
		for gi := range e.order {
			if qmask[gi] && !opt.IncludeQuery {
				continue
			}
			if w := merged.weight[gi]; w != 0 {
				merged.score[gi] /= w // final score, reused in place
				order = append(order, int32(gi))
			}
		}
		sort.SliceStable(order, func(a, b int) bool {
			return merged.score[order[a]] > merged.score[order[b]]
		})
	}
	if opt.MaxGenes > 0 && len(order) > opt.MaxGenes {
		order = order[:opt.MaxGenes]
	}
	res.Genes = make([]GeneRank, len(order))
	for i, gi := range order {
		res.Genes[i] = GeneRank{
			ID:      e.order[gi],
			Name:    e.names[gi],
			Score:   merged.score[gi],
			IsQuery: qmask[gi],
		}
	}
	return res, nil
}

// coherence is the mean Fisher-z-transformed pairwise Pearson correlation
// among the query rows — SPELL's dataset informativeness signal. NaN when
// fewer than two query genes are present.
func coherence(sl *slab, qrows []int32) float64 {
	if len(qrows) < 2 {
		return math.NaN()
	}
	s, n := 0.0, 0
	for i := 0; i < len(qrows); i++ {
		for j := i + 1; j < len(qrows); j++ {
			r := rowCorr(sl, qrows[i], qrows[j])
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

// rowCorr is the Pearson correlation of two slab rows: a single dot product
// when both rows have unit forms, the NaN-pairwise statistic otherwise.
func rowCorr(sl *slab, a, b int32) float64 {
	if sl.fast[a] && sl.fast[b] {
		return stats.Clamp(stats.Dot(sl.unitRow(a), sl.unitRow(b)), -1, 1)
	}
	return stats.Pearson(sl.zrow(a), sl.zrow(b))
}

// scoreAdder is the accumulator contract of the stage-2 scoring loops: the
// single-process kernel's dense *accum and the shard path's *dualAccum
// (partial.go) both satisfy it, and the generic instantiation keeps each
// call monomorphized — no interface dispatch on the per-gene hot path.
type scoreAdder interface {
	add(gid int32, w, meanCorr float64)
}

// scoreInto accumulates dataset sl's contribution (at weight w) to every
// gene's score: each gene row's mean correlation to the query rows.
//
// When every query row has a unit form, the query rows are pre-summed once:
// for a gene row g with a unit form, mean_q Pearson(g, q) =
// Dot(unit_g, Σ_q unit_q) / nq — one dot product per gene instead of one
// per (gene, query) pair. Rows without unit forms take the per-pair path.
func scoreInto[A scoreAdder](sl *slab, qrows []int32, allFast bool, w float64, acc A) {
	nq := len(qrows)
	if nq == 0 {
		return
	}
	nE := sl.nExp
	if allFast && nE > 0 {
		qsum := make([]float64, nE)
		for _, r := range qrows {
			for i, v := range sl.unitRow(r) {
				qsum[i] += v
			}
		}
		inv := 1 / float64(nq)
		for g := range sl.fast {
			gi := sl.gids[g]
			if sl.rowOf[gi] != int32(g) {
				// Duplicate gene ID within the dataset: only the row the
				// index points at (the last) scores, matching the map
				// overwrite in the reference scorer. Supported readers
				// reject duplicates, but a hand-built Dataset can carry
				// them, and accumulating both rows would double-count.
				continue
			}
			if sl.fast[g] {
				s := stats.Dot(sl.unit[g*nE:(g+1)*nE], qsum)
				acc.add(gi, w, s*inv)
			} else {
				scoreRowSlow(sl, int32(g), qrows, w, acc)
			}
		}
		return
	}
	for g := range sl.fast {
		if sl.rowOf[sl.gids[g]] != int32(g) {
			continue // duplicate gene ID: last row wins, as above
		}
		scoreRowSlow(sl, int32(g), qrows, w, acc)
	}
}

// scoreRowSlow scores one gene row against the query rows pair by pair,
// skipping undefined correlations; the row scores only when at least one
// pair is defined.
func scoreRowSlow[A scoreAdder](sl *slab, g int32, qrows []int32, w float64, acc A) {
	s, n := 0.0, 0
	for _, qr := range qrows {
		r := rowCorr(sl, g, qr)
		if math.IsNaN(r) {
			continue
		}
		s += r
		n++
	}
	if n > 0 {
		acc.add(sl.gids[g], w, s/float64(n))
	}
}

// TopGeneIDs returns the IDs of the first n ranked genes (or fewer).
func (r *Result) TopGeneIDs(n int) []string {
	if n > len(r.Genes) {
		n = len(r.Genes)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = r.Genes[i].ID
	}
	return out
}

// PrecisionAtK returns the fraction of the top-k ranked genes that belong
// to the relevant set — the planted-module recovery metric used by the
// Figure-4 reproduction.
func (r *Result) PrecisionAtK(k int, relevant map[string]bool) float64 {
	if k <= 0 || len(r.Genes) == 0 {
		return math.NaN()
	}
	if k > len(r.Genes) {
		k = len(r.Genes)
	}
	hits := 0
	for _, g := range r.Genes[:k] {
		if relevant[g.ID] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}
