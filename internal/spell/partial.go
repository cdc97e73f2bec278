package spell

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// This file factors Search into a mergeable pipeline for the sharded
// compendium (internal/shard): a shard engine holding a slice of the
// datasets computes a Partial — unnormalized per-dataset coherences plus
// per-gene correlation accumulators — and the pure Merge renormalizes the
// dataset weights over the union compendium and reproduces the
// single-process ranking. The Partial's wire form is in frame.go.
//
// Why the accumulators merge exactly: SPELL's dataset weights are
// w_d = c_d / Σc (c_d the clamped raw coherence), and a gene's final score
// is Σ_d w_d·m_{g,d} / Σ_d w_d — the global normalizer Σc divides both the
// numerator and the denominator, so it cancels. A shard can therefore ship
// Σ_{d∈shard} c_d·m and Σ_{d∈shard} c_d without knowing Σc, and Merge's
// score (Σ c·m)/(Σ c) equals the single-process score up to float
// accumulation order (the golden-parity tests pin ≤1e-12). The one place
// the global total does change the math is SPELL's degenerate fallback —
// when every dataset's coherence clamps to zero, Search reweights uniformly
// over datasets measuring the query — and a shard cannot know locally
// whether the *global* total is zero. A Partial therefore carries both
// accumulator pairs per gene: coherence-weighted (WSum/WCnt) and unweighted
// (USum/UCnt); Merge picks per the global total (and UCnt also serves the
// UniformWeights ablation, which is deferred to merge time entirely).

// Partial is one shard's share of a search: every dataset the shard holds
// (weighted or not), and the accumulators for every gene that scored
// against the query there, held as parallel columns — what the dense
// scoring kernel produces and what the wire frame (MarshalBinary) ships,
// with no per-gene struct in between. Partials are merged with Merge. The
// zero shard case (no query gene present anywhere in the slice) is a valid
// Partial with Present == 0 on every dataset and empty columns.
//
// The columns are read-only: a Partial computed by an engine shares its ID
// and Name columns with that engine, and one decoded from a frame holds
// substrings of a few large blobs.
type Partial struct {
	// Query is the canonicalized query the shard ran. Merge refuses to
	// combine partials of different queries.
	Query []string
	// Datasets lists every dataset of the shard's slice.
	Datasets []PartialDataset

	// IDs and Names identify the genes that scored in at least one dataset
	// of the slice, in the shard engine's stable gene order; the four
	// accumulator columns below are parallel to them. m_{g,d} is the gene's
	// mean correlation to the query genes within dataset d; c_d is the
	// dataset's raw coherence clamped to [0, ∞) with NaN → 0.
	IDs, Names []string
	// WSum = Σ c_d·m_{g,d} and WCnt = Σ c_d over the shard's datasets with
	// c_d > 0 where the gene scored — the coherence-weighted pair.
	WSum, WCnt []float64
	// USum = Σ m_{g,d} and UCnt = count, over every dataset measuring the
	// query where the gene scored regardless of coherence — the uniform
	// pair, used by Merge for the degenerate fallback and the
	// UniformWeights ablation.
	USum, UCnt []float64
}

// PartialDataset is one dataset's unnormalized stage-1 result.
type PartialDataset struct {
	// Index identifies the dataset in the *global* compendium order.
	// PartialSearch fills in the shard engine's local index; a sharded
	// deployment remaps it (server-side, from the shard's slice of the
	// global dataset list) before merging, so that merged dataset ranks
	// and zero-weight tie order match the single-process engine.
	Index int
	// Name of the dataset.
	Name string
	// Coherence is the raw mean Fisher-z pairwise query correlation — NaN
	// when fewer than two query genes are present, exactly as
	// DatasetRank.QueryCoherence before normalization.
	Coherence float64
	// Present counts how many query genes the dataset measures.
	Present int
}

// checkColumns reports whether the six gene columns have one length.
func (p *Partial) checkColumns() error {
	n := len(p.IDs)
	if len(p.Names) != n || len(p.WSum) != n || len(p.WCnt) != n || len(p.USum) != n || len(p.UCnt) != n {
		return fmt.Errorf("spell: partial gene columns differ in length (%d ids, %d names, %d/%d/%d/%d accumulators)",
			n, len(p.Names), len(p.WSum), len(p.WCnt), len(p.USum), len(p.UCnt))
	}
	return nil
}

// dualAccum is the stage-2 accumulator of PartialSearch: dense vectors like
// accum, but keeping the coherence-weighted and unweighted pairs side by
// side so one scoring pass feeds both (the mean-correlation dot products
// dominate; computing them twice would double the scan).
// It satisfies scoreAdder with w carrying the dataset's clamped raw
// coherence: the weighted pair only accumulates when it is positive,
// mirroring Search's stage-2 skip of zero-weight datasets.
type dualAccum struct {
	wsum, wcnt []float64
	usum, ucnt []float64
}

func newDualAccum(numGenes int) *dualAccum {
	// One allocation, cut four ways: the columns leave in a Partial together.
	buf := make([]float64, 4*numGenes)
	cut := func(i int) []float64 { return buf[i*numGenes : (i+1)*numGenes : (i+1)*numGenes] }
	return &dualAccum{wsum: cut(0), wcnt: cut(1), usum: cut(2), ucnt: cut(3)}
}

func (a *dualAccum) add(gid int32, c, meanCorr float64) {
	if c > 0 {
		a.wsum[gid] += c * meanCorr
		a.wcnt[gid] += c
	}
	a.usum[gid] += meanCorr
	a.ucnt[gid]++
}

// PartialSearch computes this engine's share of a sharded query. Unlike
// Search it does not error when no query gene occurs in this engine's
// datasets — on a shard that is an ordinary outcome, and the resulting
// empty Partial merges as zero contribution. Options are honored for
// Parallelism only: result-shaping options (MaxGenes, IncludeQuery,
// UniformWeights) apply at Merge time, because a shard cannot cap or
// filter accumulators without breaking the union renormalization.
func (e *Engine) PartialSearch(query []string, opt Options) (*Partial, error) {
	return e.PartialSearchCtx(context.Background(), query, opt)
}

// PartialSearchCtx is PartialSearch with cooperative cancellation: both
// stages stop at the next dataset once ctx is done, so a coordinator
// deadline or a hung-up client stops costing shard CPU mid-scan.
func (e *Engine) PartialSearchCtx(ctx context.Context, query []string, opt Options) (*Partial, error) {
	return e.PartialSearchSubsetCtx(ctx, query, nil, opt)
}

// PartialSearchSubsetCtx is PartialSearchCtx restricted to a subset of
// this engine's datasets, given as local dataset indexes (nil means every
// dataset — plain PartialSearchCtx). The replicated fleet needs this:
// under top-R ownership a shard holds more datasets than any single
// request should claim, and the coordinator asks each replica for exactly
// one ownership group, so two replicas can never both count a dataset
// into one merge. Entries must be in range and unique; only the subset's
// datasets are scanned, scored, and listed in the Partial. An empty
// (non-nil) subset is valid and yields the empty partial.
func (e *Engine) PartialSearchSubsetCtx(ctx context.Context, query []string, subset []int, opt Options) (*Partial, error) {
	query = CanonicalQuery(query)
	if len(query) == 0 {
		return nil, errors.New("spell: empty query")
	}
	if subset == nil {
		subset = e.allDatasets()
	} else {
		seen := make([]bool, len(e.slabs))
		for _, di := range subset {
			if di < 0 || di >= len(e.slabs) {
				return nil, fmt.Errorf("spell: subset dataset index %d out of range [0,%d)", di, len(e.slabs))
			}
			if seen[di] {
				return nil, fmt.Errorf("spell: duplicate subset dataset index %d", di)
			}
			seen[di] = true
		}
	}
	qgids := make([]int, 0, len(query))
	for _, q := range query {
		if gi, ok := e.gid[q]; ok {
			qgids = append(qgids, gi)
		}
	}

	infos, err := e.queryInfos(ctx, qgids, subset)
	if err != nil {
		return nil, err
	}
	p := &Partial{Query: query, Datasets: make([]PartialDataset, len(subset))}
	for i, di := range subset {
		p.Datasets[i] = PartialDataset{
			Index:     di,
			Name:      e.datasets[di].Name,
			Coherence: infos[di].coherence,
			Present:   len(infos[di].q),
		}
	}

	// Stage 2: one scoring pass per dataset measuring the query feeds both
	// accumulator pairs, at the dataset's clamped raw coherence.
	var todo []int
	cw := make([]float64, len(e.slabs))
	for _, di := range subset {
		if len(infos[di].q) == 0 {
			continue
		}
		todo = append(todo, di)
		if c := infos[di].coherence; c > 0 { // false for NaN
			cw[di] = c
		}
	}
	if len(todo) == 0 {
		return p, nil // no query gene in this slice: zero contribution
	}
	acc := newDualAccum(len(e.order))
	if err := scan(ctx, e, e.searchPar(opt.Parallelism), todo, infos, cw, acc); err != nil {
		return nil, err
	}
	// The columns are the accumulator itself. When every gene scored — the
	// subset's datasets measure every gene of the engine, the normal case —
	// nothing is copied and the ID and Name columns are the engine's own;
	// otherwise the genes that scored are compacted to the front in place.
	n := 0
	for _, c := range acc.ucnt {
		if c != 0 {
			n++
		}
	}
	if n == len(e.order) {
		p.IDs, p.Names = e.order[:n:n], e.names[:n:n]
	} else {
		p.IDs, p.Names = make([]string, 0, n), make([]string, 0, n)
		for gi, c := range acc.ucnt {
			if c == 0 {
				continue
			}
			k := len(p.IDs)
			p.IDs, p.Names = append(p.IDs, e.order[gi]), append(p.Names, e.names[gi])
			acc.wsum[k], acc.wcnt[k], acc.usum[k], acc.ucnt[k] = acc.wsum[gi], acc.wcnt[gi], acc.usum[gi], c
		}
	}
	p.WSum, p.WCnt, p.USum, p.UCnt = acc.wsum[:n:n], acc.wcnt[:n:n], acc.usum[:n:n], acc.ucnt[:n:n]
	return p, nil
}

// ErrNoQueryGenes reports that no dataset of the merged partials measured
// any query gene. Callers merging a *subset* of the compendium (a
// degraded scatter) should treat it as inconclusive — the missing shards
// may hold the genes — rather than as proof the genes don't exist.
var ErrNoQueryGenes = errors.New("spell: none of the query genes occur in the compendium")

// Merge combines per-shard partials into the full search result,
// renormalizing dataset weights over the union compendium. It is pure —
// no engine, no I/O — so the coordinator can merge whatever subset of
// shards answered: dropping a shard's partial renormalizes the weights
// over the survivors, which is exactly the degraded-mode semantics.
//
// Parity with the single-process Search (pinned ≤1e-12 by the package
// tests, for any split of the compendium): dataset weights sum the clamped
// coherences in global-index order, the degenerate all-zero-coherence
// fallback reweights uniformly over datasets measuring the query, and gene
// scores divide the merged weighted sums. The one intended deviation is
// tie order among genes with exactly equal float scores: Search ties by
// compendium first-seen order, which is unrecoverable from partials, so
// Merge ties by gene ID.
//
// Every partial must carry the same canonical query, and dataset names
// must be unique across partials — a duplicate means two shards both
// claimed a dataset, which would double-count its coherence and scores.
//
// The result shares no memory with the partials: every string it returns
// is cloned. A decoded partial's strings are substrings of its frame's
// blobs (frame.go), and the coordinator caches merged results — a cached
// top-20 that aliased its inputs would pin ≈100 KB of gene-ID blob per
// entry (measured on fleet-scatter: mem_live_mb +15%).
func Merge(parts []Partial, opt Options) (*Result, error) {
	if len(parts) == 0 {
		return nil, errors.New("spell: no partials to merge")
	}
	query := parts[0].Query
	for i := range parts {
		if !slices.Equal(query, parts[i].Query) {
			return nil, fmt.Errorf("spell: partials ran different queries (%v vs %v)", query, parts[i].Query)
		}
		if err := parts[i].checkColumns(); err != nil {
			return nil, err
		}
	}
	if len(query) == 0 {
		return nil, errors.New("spell: empty query")
	}

	// Union dataset list in global-index order; weight normalization must
	// sum in that order to match Search's total bitwise.
	var dss []PartialDataset
	seenDS := make(map[string]bool)
	for _, p := range parts {
		for _, d := range p.Datasets {
			if seenDS[d.Name] {
				return nil, fmt.Errorf("spell: dataset %q claimed by more than one shard", d.Name)
			}
			seenDS[d.Name] = true
			dss = append(dss, d)
		}
	}
	sort.Slice(dss, func(a, b int) bool {
		if dss[a].Index != dss[b].Index {
			return dss[a].Index < dss[b].Index
		}
		return dss[a].Name < dss[b].Name
	})

	weights := make([]float64, len(dss))
	total := 0.0
	anyPresent := false
	for i, d := range dss {
		if d.Present > 0 {
			anyPresent = true
		}
		w := d.Coherence
		if opt.UniformWeights {
			if d.Present > 0 {
				w = 1
			} else {
				w = 0
			}
		}
		if math.IsNaN(w) || w < 0 {
			w = 0
		}
		weights[i] = w
		total += w
	}
	if !anyPresent {
		return nil, fmt.Errorf("%w (%d query genes)", ErrNoQueryGenes, len(query))
	}
	uniform := opt.UniformWeights
	if total == 0 {
		// Degenerate query (incoherent everywhere): uniform weights over
		// datasets measuring the query, as in Search.
		uniform = true
		n := 0
		for i, d := range dss {
			if d.Present > 0 {
				weights[i] = 1
				n++
			} else {
				weights[i] = 0
			}
		}
		total = float64(n)
	}
	for i := range weights {
		weights[i] /= total
	}

	// Union gene accumulators in a slot table: every distinct gene ID gets a
	// dense slot in first-partial-first-seen order (only tie order among
	// bitwise-equal scores could observe it), a part maps its rows to slots
	// once, and accumulation is four dense loops. Shards of one compendium
	// mostly score the same genes in the same order, so a part whose ID
	// column equals the previous part's reuses that part's row→slot vector
	// and never touches the map.
	n0 := len(parts[0].IDs)
	slot := make(map[string]int32, n0)
	ids, names := make([]string, 0, n0), make([]string, 0, n0)
	wsum, wcnt := make([]float64, 0, n0), make([]float64, 0, n0)
	usum, ucnt := make([]float64, 0, n0), make([]float64, 0, n0)
	var (
		prevIDs []string
		buf     []int32 // the row→slot vector of the part last mapped
		rows    []int32 // buf, or nil when that vector is the identity
	)
	for pi := range parts {
		p := &parts[pi]
		if !slices.Equal(p.IDs, prevIDs) {
			prevIDs, buf = p.IDs, slices.Grow(buf[:0], len(p.IDs))
			identity := true
			for i, id := range p.IDs {
				s, ok := slot[id]
				if !ok {
					s = int32(len(ids))
					slot[id] = s
					ids, names = append(ids, id), append(names, p.Names[i])
					wsum, wcnt, usum, ucnt = append(wsum, 0), append(wcnt, 0), append(usum, 0), append(ucnt, 0)
				}
				buf = append(buf, s)
				identity = identity && int(s) == i
			}
			if rows = buf; identity {
				rows = nil
			}
		}
		addRows(wsum, p.WSum, rows)
		addRows(wcnt, p.WCnt, rows)
		addRows(usum, p.USum, rows)
		addRows(ucnt, p.UCnt, rows)
	}

	res := &Result{Query: make([]string, len(query)), Datasets: make([]DatasetRank, len(dss))}
	for i, q := range query {
		res.Query[i] = strings.Clone(q)
	}
	for i, d := range dss {
		res.Datasets[i] = DatasetRank{
			Index:          d.Index,
			Name:           strings.Clone(d.Name),
			Weight:         weights[i],
			QueryCoherence: d.Coherence,
			QueryPresent:   d.Present,
		}
	}
	// Equivalent to Search's stable sort over index-ordered entries:
	// weight descending, global index ascending among equal weights.
	sort.Slice(res.Datasets, func(a, b int) bool {
		if res.Datasets[a].Weight != res.Datasets[b].Weight {
			return res.Datasets[a].Weight > res.Datasets[b].Weight
		}
		return res.Datasets[a].Index < res.Datasets[b].Index
	})

	// As in SearchCtx: rank compact slot indexes and materialize only the
	// entries that survive the MaxGenes cut.
	sum, cnt := wsum, wcnt
	if uniform {
		sum, cnt = usum, ucnt
	}
	qmask := make([]bool, len(ids))
	for _, q := range query {
		if s, ok := slot[q]; ok {
			qmask[s] = true
		}
	}
	order := make([]int32, 0, len(ids))
	for s := range ids {
		if qmask[s] && !opt.IncludeQuery {
			continue
		}
		if c := cnt[s]; c != 0 {
			sum[s] /= c // final score, reused in place
			order = append(order, int32(s))
		}
	}
	// Score descending, gene ID among exact ties.
	order = topK(order, opt.MaxGenes, func(a, b int32) int {
		if c := cmp.Compare(sum[b], sum[a]); c != 0 {
			return c
		}
		return strings.Compare(ids[a], ids[b])
	})
	res.Genes = make([]GeneRank, len(order))
	for i, s := range order {
		res.Genes[i] = GeneRank{
			ID:      strings.Clone(ids[s]),
			Name:    strings.Clone(names[s]),
			Score:   sum[s],
			IsQuery: qmask[s],
		}
	}
	return res, nil
}

// addRows adds the column src into the accumulator dst: row i into slot
// rows[i], or — rows == nil, the identity — into slot i.
func addRows(dst, src []float64, rows []int32) {
	if rows == nil {
		dst = dst[:len(src)]
		for i, v := range src {
			dst[i] += v
		}
		return
	}
	for i, s := range rows {
		dst[s] += src[i]
	}
}
