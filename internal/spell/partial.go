package spell

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"forestview/internal/tilecorr"
	"forestview/internal/wire"
)

// This file is SPELL's search, written once as a mergeable pipeline. An
// engine computes a Partial over some of its datasets — unnormalized
// per-dataset coherences plus per-gene correlation accumulators — the pure
// Merge takes the union of a fleet's partials, and finish normalizes the
// dataset weights over whatever compendium the partial covers and ranks.
// Search is the engine's partial over all of its datasets, finished; a
// sharded search (internal/shard) is Merge, which ends in the same finish.
// The Partial's wire form is in frame.go.
//
// Why the accumulators merge exactly: SPELL's dataset weights are
// w_d = c_d / Σc (c_d the clamped raw coherence), and a gene's final score
// is Σ_d w_d·m_{g,d} / Σ_d w_d — the global normalizer Σc divides both the
// numerator and the denominator, so it cancels. A shard can therefore ship
// Σ_{d∈shard} c_d·m and Σ_{d∈shard} c_d without knowing Σc, and the score
// (Σ c·m)/(Σ c) over any split equals the score over one part bit for bit:
// every sum is exact (accum.go). The one place
// the global total does change the math is SPELL's degenerate fallback —
// when every dataset's coherence clamps to zero, the weights are uniform
// over the datasets measuring the query — and a shard cannot know locally
// whether the *global* total is zero. A Partial carries one accumulator
// pair, weighted by coherence or uniform (Options.UniformWeights), and
// finish answers ErrNeedUniform when it was given the weighted pair and the
// compendium turns out to need the other: the caller — Search, or the
// coordinator over the wire — asks once more. That second round is rare and
// its first round was nearly free — a query incoherent everywhere gives no
// dataset any weight, so the weighted scan had nothing to scan.

// Partial is one shard's share of a search: the datasets it answers for
// (weighted or not), and the accumulators for every gene that scored
// against the query there, held as parallel columns — what the dense
// scoring kernel produces and what the wire frame (MarshalBinary) ships,
// with no per-gene struct in between. Partials are merged with Merge. The
// zero shard case (no query gene present anywhere in the slice, or no
// dataset carrying weight) is a valid Partial with empty columns.
//
// A Partial's strings are read-only once built: one computed by an engine
// shares its ID and Name columns with that engine, and one decoded from a
// frame holds substrings of a few large blobs. Its accumulator columns are
// read-only too, except to Merge over that one part, which consumes them.
type Partial struct {
	// Query is the canonicalized query the shard ran. Merge refuses to
	// combine partials of different queries.
	Query []string
	// Datasets lists every dataset the partial answers for.
	Datasets []PartialDataset

	// Uniform says which accumulator pair Sums holds. m_{g,d} is the
	// gene's mean correlation to the query genes within dataset d; c_d is
	// the dataset's raw coherence clamped to [0, ∞) with NaN → 0.
	//
	//	false  Sum = Σ c_d·m_{g,d}, Cnt = Σ c_d, over the datasets with
	//	       c_d > 0 where the gene scored
	//	true   Sum = Σ m_{g,d}, Cnt = count, over every dataset measuring
	//	       the query where the gene scored — the degenerate fallback
	//	       and the UniformWeights ablation
	//
	// Either way a gene's score is Sum/Cnt.
	Uniform bool
	// IDs and Names identify the genes that scored in at least one scanned
	// dataset, in the shard engine's stable gene order. Sums is parallel to
	// them: Sum and Cnt, each as the hi and lo column of the exact grid
	// (accum.go), in the order sumHi, sumLo, cntHi, cntLo.
	IDs, Names []string
	Sums       [4][]float64

	// rows finds a gene's row in IDs without reading IDs, while rowsOf is
	// IDs itself (geneIndex): the engine's gene index for a partial in which
	// every gene scored, the one a GeneColumns keeps of a column it decoded,
	// or Merge's slot table. It is not part of the frame.
	rows   map[string]int
	rowsOf []string
}

// geneIndex returns p's index of its gene IDs, or nil when it has none for
// the IDs it holds now.
func (p *Partial) geneIndex() map[string]int {
	if p.rows == nil || len(p.rowsOf) != len(p.IDs) || len(p.IDs) == 0 || &p.rowsOf[0] != &p.IDs[0] {
		return nil
	}
	return p.rows
}

// PartialDataset is one dataset's unnormalized stage-1 result.
type PartialDataset struct {
	// Index identifies the dataset in the *global* compendium order.
	// PartialSearchSubsetCtx fills in the shard engine's local index; a sharded
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
	n, ok := len(p.IDs), len(p.Names) == len(p.IDs)
	for _, col := range p.Sums {
		ok = ok && len(col) == n
	}
	if !ok {
		return fmt.Errorf("spell: partial gene columns differ in length (%d ids, %d names, %d/%d/%d/%d accumulators)",
			n, len(p.Names), len(p.Sums[0]), len(p.Sums[1]), len(p.Sums[2]), len(p.Sums[3]))
	}
	return nil
}

// weight is a dataset's unnormalized weight: its raw coherence, or with
// uniform weights 1 when it measures the query; 0 when that is not above
// zero on the grid (NaN included). Stage 2 and finish both ask it, so a
// dataset carries weight in the ranked list exactly when its genes scored.
func weight(coherence float64, present int, uniform bool) float64 {
	if uniform {
		coherence = float64(min(present, 1))
	}
	if hi, lo := tilecorr.Split(coherence); hi+lo > 0 {
		return coherence
	}
	return 0
}

// PartialSearchSubsetCtx computes this engine's share of a query over a
// subset of its datasets, given as local dataset indexes (nil means every
// dataset). It does not error when no query gene occurs in those datasets
// — on a shard that is an ordinary outcome, and the resulting empty
// Partial merges as zero contribution; only the finish, which sees the
// whole compendium, can say ErrNoQueryGenes. Options are honored for
// Parallelism and UniformWeights (which accumulator pair the partial
// carries); MaxGenes and IncludeQuery apply at Merge time, because a shard
// cannot cap or filter accumulators without breaking the union
// renormalization. Both stages stop at the next dataset once ctx is done,
// so a coordinator deadline or a hung-up client stops costing shard CPU
// mid-scan.
//
// The subset is what the replicated fleet needs:
// under top-R ownership a shard holds more datasets than any single
// request should claim, and the coordinator asks each replica for whole
// ownership groups, so two replicas can never both count a dataset into one
// merge. Entries must be in range and unique, in any order; every dataset
// of the subset is listed in the Partial, and those that carry weight (see
// weight) are scanned. An empty (non-nil) subset is valid and yields the
// empty partial.
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
	p := &Partial{Query: query, Uniform: opt.UniformWeights, Datasets: make([]PartialDataset, len(subset))}
	for i, di := range subset {
		p.Datasets[i] = PartialDataset{
			Index:     di,
			Name:      e.dsNames[di],
			Coherence: infos[di].coherence,
			Present:   len(infos[di].q.Rows),
		}
	}

	// Stage 2, at unnormalized weights.
	var todo []int
	weights := make([]float64, len(e.slabs))
	for _, di := range subset {
		if weights[di] = weight(infos[di].coherence, len(infos[di].q.Rows), opt.UniformWeights); weights[di] > 0 {
			todo = append(todo, di)
		}
	}
	if len(todo) == 0 {
		return p, nil // nothing in this slice carries weight: zero contribution
	}
	acc := newAccum(len(e.order))
	if err := scan(ctx, e, e.searchPar(opt.Parallelism), todo, infos, weights, acc); err != nil {
		return nil, err
	}
	// The columns are the accumulator itself. When every gene scored — the
	// scanned datasets measure every gene of the engine, the normal case —
	// nothing is copied and the ID and Name columns are the engine's own;
	// otherwise the genes that scored are compacted to the front in place.
	scored := func(gi int) bool { return acc[cntHi][gi]+acc[cntLo][gi] != 0 }
	n := 0
	for gi := range e.order {
		if scored(gi) {
			n++
		}
	}
	if n == len(e.order) {
		p.IDs, p.Names = e.order[:n:n], e.names[:n:n]
		p.rows, p.rowsOf = e.gid, p.IDs
	} else {
		p.IDs, p.Names = make([]string, 0, n), make([]string, 0, n)
		for gi := range e.order {
			if !scored(gi) {
				continue
			}
			k := len(p.IDs)
			p.IDs, p.Names = append(p.IDs, e.order[gi]), append(p.Names, e.names[gi])
			for _, col := range acc {
				col[k] = col[gi]
			}
		}
	}
	for k, col := range acc {
		p.Sums[k] = col[:n:n]
	}
	return p, nil
}

// ownsGenes reports whether p's gene columns are this engine's own slices.
func (e *Engine) ownsGenes(p *Partial) bool {
	return len(p.IDs) == len(e.order) && len(p.Names) == len(e.names) && len(p.IDs) > 0 &&
		&p.IDs[0] == &e.order[0] && &p.Names[0] == &e.names[0]
}

// AppendPartial appends p's frame to b: the bytes p.AppendBinary appends.
// When p's gene columns are this engine's own slices (every gene scored),
// they are copied from one encoding the engine builds on first use, not
// encoded again; a daemon that never answers a coordinator never builds it.
func (e *Engine) AppendPartial(b []byte, p *Partial) ([]byte, error) {
	if !e.ownsGenes(p) {
		return p.AppendBinary(b)
	}
	e.genesOnce.Do(func() { e.genes = wire.AppendColumn(wire.AppendColumn(nil, e.order), e.names) })
	return p.appendFrame(b, e.genes)
}

// ErrNoQueryGenes reports that no dataset of the searched compendium measures
// any query gene. Callers merging a *subset* of the compendium (a
// degraded scatter) should treat it as inconclusive — the missing shards
// may hold the genes — rather than as proof the genes don't exist.
var ErrNoQueryGenes = errors.New("spell: none of the query genes occur in the compendium")

// ErrNeedUniform reports that Merge was given coherence-weighted partials
// but the result takes the uniform accumulator pair: Options.UniformWeights
// is set, or every dataset's coherence clamps to zero (SPELL's degenerate
// fallback, knowable only over the union). The caller computes the partials
// again with Options.UniformWeights and merges those; Search does so itself.
var ErrNeedUniform = errors.New("spell: the merge needs uniform-weight partials")

// checkParts is Merge's precondition: at least one partial, one canonical
// query, one accumulator kind, consistent columns.
func checkParts(parts []Partial) error {
	if len(parts) == 0 {
		return errors.New("spell: no partials to merge")
	}
	first := &parts[0]
	if len(first.Query) == 0 {
		return errors.New("spell: empty query")
	}
	if !slices.IsSorted(first.Query) {
		return fmt.Errorf("spell: partial query %v is not canonical", first.Query)
	}
	for i := range parts {
		p := &parts[i]
		if !slices.Equal(first.Query, p.Query) {
			return fmt.Errorf("spell: partials ran different queries (%v vs %v)", first.Query, p.Query)
		}
		if p.Uniform != first.Uniform {
			return errors.New("spell: partials mix coherence-weighted and uniform accumulators")
		}
		if err := p.checkColumns(); err != nil {
			return err
		}
	}
	return nil
}

// geneSums is the union of several partials' gene accumulators. While every
// part lists the same genes in the same order — shards of one compendium
// mostly do — adding a part is two dense loops over columns that alias the
// first part's ID and Name columns. The first part that differs moves the
// union into a slot table: every distinct gene ID gets a dense slot in
// first-seen order (only tie order among bitwise-equal scores could observe
// it), the part maps its rows to slots once, and a part whose ID column
// equals its predecessor's reuses that row→slot vector.
//
// The union takes the first part's accumulator columns, not a copy of them,
// and copies them only when a second part is added: a lone part's Sums are
// the union's, which finish ranks in place (Merge's contract).
type geneSums struct {
	ids, names []string
	sums       accum
	taken      bool           // sums are the first part's own columns
	index      map[string]int // the first part's gene index, or the slot table

	slot    map[string]int // nil until a part lists other genes than the first
	prevIDs []string
	buf     []int32 // the row→slot vector of the part last mapped
	rows    []int32 // buf, or nil when that vector is the identity
}

// sameColumn reports whether two ID columns list the same genes in the same
// order; columns shared with one engine are the same memory.
func sameColumn(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0] || slices.Equal(a, b)
}

// add accumulates one part. The first part's accumulator columns become
// the union's; every later part is only read.
func (u *geneSums) add(p *Partial) {
	if len(p.IDs) == 0 {
		return // nothing scored there
	}
	if u.ids == nil {
		// Clipped, so that growing the union copies instead of writing
		// behind the part's columns.
		u.ids, u.names = slices.Clip(p.IDs), slices.Clip(p.Names)
		for k, col := range p.Sums {
			u.sums[k] = slices.Clip(col)
		}
		u.taken, u.index, u.prevIDs = true, p.geneIndex(), p.IDs
		return
	}
	if u.taken {
		for k, col := range u.sums {
			u.sums[k] = slices.Clone(col)
		}
		u.taken = false
	}
	if !sameColumn(p.IDs, u.prevIDs) {
		if u.slot == nil {
			u.slot = make(map[string]int, len(u.ids))
			for i, id := range u.ids {
				u.slot[id] = i
			}
			u.index = u.slot
		}
		u.prevIDs, u.buf = p.IDs, slices.Grow(u.buf[:0], len(p.IDs))
		identity := true
		for i, id := range p.IDs {
			s, ok := u.slot[id]
			if !ok {
				s = len(u.ids)
				u.slot[id] = s
				u.ids, u.names = append(u.ids, id), append(u.names, p.Names[i])
				for k := range u.sums {
					u.sums[k] = append(u.sums[k], 0)
				}
			}
			u.buf = append(u.buf, int32(s))
			identity = identity && s == i
		}
		if u.rows = u.buf; identity {
			u.rows = nil
		}
	}
	for k, col := range u.sums {
		addRows(col, p.Sums[k], u.rows)
	}
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

// Merge combines per-shard partials into the full search result,
// renormalizing dataset weights over the union compendium. It is pure —
// no engine, no I/O — so the coordinator can merge whatever subset of
// shards answered: dropping a shard's partial renormalizes the weights
// over the survivors, which is exactly the degraded-mode semantics.
//
// Merge is the union step only — the dataset lists put in global-index
// order, the gene accumulators added up in the order the parts are given —
// and hands the union to finish, the ranking Search runs on its own
// partial: a search over any split of the compendium is that search, bit
// for bit, because every sum is exact (accum.go).
//
// Every partial must carry the same canonical query and the same
// accumulator pair, and dataset names must be unique across partials — a
// duplicate means two shards both claimed a dataset, which would
// double-count its coherence and scores. A union of more than MaxDatasets
// is refused. Weighted partials whose union needs the uniform pair are
// ErrNeedUniform.
//
// Merge over one part — a single daemon is a fleet of one — consumes that
// part's accumulators: the union is its Sums, not a copy, and the ranking
// writes scores into them, so the caller does not read them after the
// call. (A part that scored no gene does not count: the same
// holds for the one part of several that did.) Over several parts that
// scored, the union has columns of its own and the parts are only read.
//
// The result shares no memory with the partials: every string it returns
// is copied, into one block. A decoded partial's strings are substrings of
// its frame's blobs (frame.go), and daemons cache merged results — a cached
// top-20 that aliased its inputs would pin ≈100 KB of gene-ID blob per
// entry (measured on fleet-scatter: mem_live_mb +15%).
func Merge(parts []Partial, opt Options) (*Result, error) {
	if err := checkParts(parts); err != nil {
		return nil, err
	}
	var u geneSums
	union := &Partial{Query: parts[0].Query, Uniform: parts[0].Uniform}
	n := 0
	for i := range parts {
		n += len(parts[i].Datasets)
	}
	if n > MaxDatasets {
		return nil, fmt.Errorf("spell: a union of %d datasets, more than the %d a search adds up exactly", n, MaxDatasets)
	}
	union.Datasets = make([]PartialDataset, 0, n)
	for i := range parts {
		union.Datasets = append(union.Datasets, parts[i].Datasets...)
	}
	// By name first: a name twice means two shards both claimed a dataset.
	slices.SortFunc(union.Datasets, func(a, b PartialDataset) int { return strings.Compare(a.Name, b.Name) })
	for i := 1; i < n; i++ {
		if name := union.Datasets[i].Name; name == union.Datasets[i-1].Name {
			return nil, fmt.Errorf("spell: dataset %q claimed by more than one shard", name)
		}
	}
	for i := range parts {
		u.add(&parts[i])
	}
	slices.SortFunc(union.Datasets, func(a, b PartialDataset) int {
		return cmp.Or(cmp.Compare(a.Index, b.Index), strings.Compare(a.Name, b.Name))
	})
	union.IDs, union.Names, union.Sums = u.ids, u.names, u.sums
	union.rows, union.rowsOf = u.index, u.ids

	qmask := make([]bool, len(union.IDs))
	markQuery(qmask, union)
	res, err := finish(union, qmask, opt)
	if err != nil {
		return nil, err
	}
	// One block holds every string the result keeps: one allocation, not
	// one a string (a top-200 result keeps over 400).
	res.Query = slices.Clone(res.Query)
	strs, n := make([]*string, 0, len(res.Query)+len(res.Datasets)+2*len(res.Genes)), 0
	keep := func(s *string) { strs, n = append(strs, s), n+len(*s) }
	for i := range res.Query {
		keep(&res.Query[i])
	}
	for i := range res.Datasets {
		keep(&res.Datasets[i].Name)
	}
	for i := range res.Genes {
		keep(&res.Genes[i].ID)
		keep(&res.Genes[i].Name)
	}
	var block strings.Builder
	block.Grow(n)
	for _, s := range strs {
		block.WriteString(*s)
		*s = block.String()[block.Len()-len(*s):]
	}
	return res, nil
}

// markQuery sets qmask at the rows of p's gene columns that are query genes:
// each query gene looked up in p's gene index when it has one, else each
// row's ID searched for in the sorted query.
func markQuery(qmask []bool, p *Partial) {
	if index := p.geneIndex(); index != nil {
		for _, q := range p.Query {
			if s, ok := index[q]; ok {
				qmask[s] = true
			}
		}
		return
	}
	for s, id := range p.IDs {
		_, qmask[s] = slices.BinarySearch(p.Query, id)
	}
}

// finish is SPELL's ranking, the one copy of it: from a partial that covers
// the datasets being searched — an engine's own, or Merge's union of a
// fleet's — to the result. p.Datasets must be in global-index order, the
// order the weight total is summed in, and qmask marks the rows of p's gene
// columns that are query genes. The result shares p's strings, and finish
// folds each gene's columns and leaves its score in p.Sums[sumHi]: the
// caller owns the accumulator columns and does not read them again.
func finish(p *Partial, qmask []bool, opt Options) (*Result, error) {
	// Normalize positive coherence into weights. A dataset where the query
	// genes are uncorrelated (or absent) contributes nothing, exactly the
	// behaviour that lets SPELL ignore irrelevant studies.
	// Each dataset's weight is its raw weight until the total divides it.
	res := &Result{Query: p.Query, Datasets: make([]DatasetRank, len(p.Datasets))}
	total, measuring := 0.0, 0
	for i, d := range p.Datasets {
		measuring += min(d.Present, 1)
		w := weight(d.Coherence, d.Present, opt.UniformWeights)
		res.Datasets[i] = DatasetRank{Index: d.Index, Name: d.Name, Weight: w, QueryCoherence: d.Coherence, QueryPresent: d.Present}
		total += w
	}
	if measuring == 0 {
		return nil, fmt.Errorf("%w (%d query genes)", ErrNoQueryGenes, len(p.Query))
	}
	uniform := opt.UniformWeights
	if total == 0 {
		// Degenerate query (incoherent everywhere): fall back to uniform
		// weights over the datasets measuring the query.
		uniform = true
		for i, d := range p.Datasets {
			res.Datasets[i].Weight = float64(min(d.Present, 1))
		}
		total = float64(measuring)
	}
	if uniform != p.Uniform {
		if uniform {
			return nil, ErrNeedUniform
		}
		return nil, errors.New("spell: uniform-weight partials, but the merged coherences call for the weighted pair")
	}

	for i := range res.Datasets {
		res.Datasets[i].Weight /= total
	}
	// Weight descending, global index ascending among equal weights.
	slices.SortStableFunc(res.Datasets, func(a, b DatasetRank) int {
		return cmp.Compare(b.Weight, a.Weight)
	})

	// Score descending, gene ID among exact ties. The best MaxGenes are kept
	// while the genes are scored, in the result's own slice: nothing is
	// built over every gene but with MaxGenes <= 0, which ranks them all.
	ids, sum := p.IDs, p.Sums[sumHi]
	by := func(a, b GeneRank) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return strings.Compare(a.ID, b.ID)
	}
	keep := len(ids)
	if opt.MaxGenes > 0 {
		keep = min(opt.MaxGenes, keep)
	}
	res.Genes = make([]GeneRank, 0, keep)
	for s := range ids {
		if qmask[s] && !opt.IncludeQuery {
			continue
		}
		if c := p.Sums[cntHi][s] + p.Sums[cntLo][s]; c != 0 {
			sum[s] = (sum[s] + p.Sums[sumLo][s]) / c // the fold, then the final score, in place
			res.Genes = keepTop(res.Genes, GeneRank{ID: ids[s], Name: p.Names[s], Score: sum[s], IsQuery: qmask[s]}, opt.MaxGenes, by)
		}
	}
	if opt.MaxGenes <= 0 {
		slices.SortFunc(res.Genes, by)
	}
	return res, nil
}
