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
// z-scored rows zero-filled in gene-ordered tiles of eight, and scores a
// query row against a tile's eight rows — complete or not — with one pass
// of dot products plus a correction per missing cell (the kernel shared
// with clustering, internal/tilecorr; slab.go). Gene scores accumulate into
// one dense vector that the workers share by owning disjoint ranges of the
// gene index, each term on an exact grid (see accum.go). The naive scorer in
// internal/oracle is the golden standard the kernel is tested against.
package spell

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"forestview/internal/microarray"
	"forestview/internal/stats"
	"forestview/internal/tilecorr"
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
// such searches into empty 200s. It writes the bytes encoding/json writes
// for the struct with that one field a pointer — the fields in that order,
// the floats as json formats them — itself, in one allocation, and hands a
// name that would need escaping or a value json refuses to marshalStd.
func (d DatasetRank) MarshalJSON() ([]byte, error) {
	if !plainJSON(d.Name) || math.IsInf(d.Weight, 0) || math.IsNaN(d.Weight) || math.IsInf(d.QueryCoherence, 0) {
		return d.marshalStd()
	}
	b := make([]byte, 0, 144+len(d.Name))
	b = strconv.AppendInt(append(b, `{"Index":`...), int64(d.Index), 10)
	b = append(append(append(b, `,"Name":"`...), d.Name...), '"')
	b = appendJSONFloat(append(b, `,"Weight":`...), d.Weight)
	b = strconv.AppendInt(append(b, `,"QueryPresent":`...), int64(d.QueryPresent), 10)
	b = append(b, `,"QueryCoherence":`...)
	if math.IsNaN(d.QueryCoherence) {
		b = append(b, "null"...)
	} else {
		b = appendJSONFloat(b, d.QueryCoherence)
	}
	return append(b, '}'), nil
}

// marshalStd is MarshalJSON by encoding/json.
func (d DatasetRank) marshalStd() ([]byte, error) {
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

// plainJSON reports whether encoding/json writes s as it is between quotes:
// printable ASCII with nothing it escapes.
func plainJSON(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendJSONFloat appends a finite f as encoding/json writes a float64: the
// shortest decimal, in exponent form below 1e-6 and from 1e21 on, with a
// one-digit negative exponent unpadded.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
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
// as a contiguous slab ready for the dense kernel. It keeps the slabs, the
// gene index and the dataset names, in strings of its own, and nothing else
// of its input: a dataset handed to NewEngine or Grow is free once the call
// returns. An Engine is immutable and safe for concurrent Search calls.
type Engine struct {
	dsNames []string       // dataset index -> dataset name
	order   []string       // global gene index -> gene ID, stable compendium order
	names   []string       // global gene index -> display name
	gid     map[string]int // gene ID -> global index
	slabs   []*slab

	genesOnce   sync.Once
	genes       []byte      // order and names as frame columns (AppendPartial)
	genesDigest GenesDigest // genes' SHA-256
}

// NewEngine prepares the given datasets for searching: an empty engine
// grown by them.
func NewEngine(dss []*microarray.Dataset) (*Engine, error) {
	return new(Engine).Grow(dss)
}

// Grow returns an engine over the receiver's datasets followed by dss. The
// genes dss bring that the receiver lacks join the end of a copy of its gene
// index, in first-seen order, so the receiver's slabs stay valid and are
// shared; only dss get slabs built. The receiver is never written, and keeps
// answering while it grows. Datasets are not modified.
func (e *Engine) Grow(dss []*microarray.Dataset) (*Engine, error) {
	if n := len(e.slabs) + len(dss); n == 0 {
		return nil, errors.New("spell: empty compendium")
	} else if n > MaxDatasets {
		return nil, fmt.Errorf("spell: %d datasets, more than the %d a search adds up exactly", n, MaxDatasets)
	}
	g := &Engine{
		dsNames: slices.Clip(e.dsNames),
		order:   slices.Clip(e.order),
		names:   slices.Clip(e.names),
		gid:     make(map[string]int, len(e.gid)),
		slabs:   append(slices.Clip(e.slabs), make([]*slab, len(dss))...),
	}
	maps.Copy(g.gid, e.gid)
	// Pass 1: the new dataset names and genes, each string copied so that
	// none keeps the text it was parsed from alive.
	for _, ds := range dss {
		g.dsNames = append(g.dsNames, strings.Clone(ds.Name))
		for _, gene := range ds.Genes {
			if _, ok := g.gid[gene.ID]; !ok {
				id := strings.Clone(gene.ID)
				g.gid[id] = len(g.order)
				g.order, g.names = append(g.order, id), append(g.names, strings.Clone(gene.Name))
			}
		}
	}
	// Pass 2: the new datasets' slabs, built concurrently — each slot is
	// written by exactly one worker.
	var wg sync.WaitGroup
	work := make(chan int)
	for range min(runtime.GOMAXPROCS(0), len(dss)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for di := range work {
				g.slabs[len(e.slabs)+di] = buildSlab(dss[di], g.gid, len(g.order))
			}
		}()
	}
	for di := range dss {
		work <- di
	}
	close(work)
	wg.Wait()
	return g, nil
}

// NumDatasets returns the compendium size.
func (e *Engine) NumDatasets() int { return len(e.slabs) }

// DatasetNames returns the compendium's dataset names in engine order.
func (e *Engine) DatasetNames() []string { return slices.Clone(e.dsNames) }

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
	q         tilecorr.Query // the dataset's rows measuring query genes, gathered
	coherence float64
}

// searchPar resolves a requested parallelism: GOMAXPROCS by default, and
// never more workers than there are genes to share out.
func (e *Engine) searchPar(requested int) int {
	par := requested
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	return max(1, min(par, len(e.order)))
}

// queryInfos runs stage 1 — per-dataset query rows and raw coherence — over
// the listed datasets, stopping with the context error once ctx is done. It
// costs about len(qgids) tiles of stage 2 a dataset, not worth a goroutine. The
// result is one slot per dataset of the engine; slots outside the list stay
// zero and must not be read.
func (e *Engine) queryInfos(ctx context.Context, qgids []int, dss []int) ([]dsInfo, error) {
	infos := make([]dsInfo, len(e.slabs))
	// Two allocations, cut per dataset: the query rows and the cells they
	// are gathered into.
	rows := make([]tilecorr.Row, 0, len(dss)*len(qgids))
	cells := 0
	for _, di := range dss {
		cells += tilecorr.QueryCells(len(qgids), e.slabs[di].tiles.NExp())
	}
	buf := make([]float64, cells)
	for _, di := range dss {
		if ctx.Err() != nil {
			break
		}
		sl := e.slabs[di]
		from := len(rows)
		rows = sl.appendQueryRows(rows, qgids)
		q := tilecorr.Query{Rows: rows[from:]}
		n := tilecorr.QueryCells(len(q.Rows), sl.tiles.NExp())
		q.Buf, buf = buf[:n], buf[n:]
		sl.tiles.Gather(&q)
		infos[di] = dsInfo{q: q, coherence: sl.coherence(&q)}
	}
	return infos, ctx.Err()
}

// allDatasets lists every dataset index of the engine.
func (e *Engine) allDatasets() []int {
	all := make([]int, len(e.slabs))
	for di := range all {
		all[di] = di
	}
	return all
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

// SearchCtx is Search with cooperative cancellation: both stages stop at
// the next dataset once ctx is done and the context error is returned, so
// a hung-up client stops costing scan CPU.
//
// A search is the engine's partial over all of its datasets, finished — a
// single process is a fleet of one, and runs what a coordinator runs over
// the wire, down to the second round for a query that is incoherent in
// every dataset. Two runs of one query on one engine return bit-identical
// results, whatever the parallelism: every sum is exact (accum.go).
func (e *Engine) SearchCtx(ctx context.Context, query []string, opt Options) (*Result, error) {
	res, err := e.searchRound(ctx, query, opt)
	if errors.Is(err, ErrNeedUniform) {
		opt.UniformWeights = true
		res, err = e.searchRound(ctx, query, opt)
	}
	return res, err
}

// searchRound is one partial and its finish, for one accumulator pair. The
// partial is this call's own, so finish ranks its columns in place, which
// go back to the pool once it returns, and the result's strings are the
// engine's: nothing is added up and nothing cloned.
func (e *Engine) searchRound(ctx context.Context, query []string, opt Options) (*Result, error) {
	p, err := e.PartialSearchSubsetCtx(ctx, query, nil, opt)
	if err != nil {
		return nil, err
	}
	defer p.Release()
	qmask := make([]bool, len(p.IDs))
	markQuery(qmask, p)
	return finish(p, qmask, opt)
}

// keepTop adds x to top, which holds the best k of the elements it has been
// handed so far in the total order by, in that order: x goes in where it
// ranks unless top is full and x ranks after its last. With k <= 0 it keeps
// every element, unsorted.
func keepTop[T any](top []T, x T, k int, by func(a, b T) int) []T {
	if k <= 0 {
		return append(top, x)
	}
	if len(top) == k {
		if by(x, top[k-1]) >= 0 {
			return top
		}
		top = top[:k-1]
	}
	at, _ := slices.BinarySearchFunc(top, x, by)
	return slices.Insert(top, at, x)
}

// coherence is the mean Fisher-z-transformed pairwise Pearson correlation
// among the query rows q of this dataset — SPELL's dataset informativeness
// signal. NaN when fewer than two query genes are present. A query gene's
// row is a lane of some tile, so each pair is read off the kernel stage 2
// runs: that tile against the block holding the other row.
func (s *slab) coherence(q *tilecorr.Query) float64 {
	sum, n := 0.0, 0
	nExp := s.tiles.NExp()
	var dots, corr [blockRows * tileRows]float64
	for i := 1; i < len(q.Rows); i++ {
		t, lane := q.Rows[i].Index/tileRows, q.Rows[i].Index%tileRows
		tile := s.tiles.Tile(t)
		for b := 0; blockRows*b < i; b++ {
			z, _, live := q.Block(b, nExp)
			rows := min(live, i-blockRows*b) // the block's rows before row i
			tilecorr.Dot(&dots, tile, z, nExp)
			// Only row i's lane is read, so only its flags are recomputed (a
			// uint32 shifted by 32 is 0: four rows keep all 32 bits).
			read := uint32(0x01010101) << lane & (uint32(1)<<(tileRows*rows) - 1)
			if m := s.tiles.FinishBlock(&corr, &dots, t, q, b) & read; m != 0 {
				s.exactLanes(&corr, m, t, q.Rows[blockRows*b:])
			}
			for k := 0; k < rows; k++ {
				if r := corr[k*tileRows+lane]; !math.IsNaN(r) {
					sum += stats.FisherZ(r)
					n++
				}
			}
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// scan runs stage 2 over the datasets in todo: every gene's mean
// correlation to the query rows of each dataset, accumulated into acc at
// weights[di]. The par workers each own a contiguous range of the global
// gene index, so every accumulator cell is written by one worker — no lock
// and no per-worker copy to merge. Workers stop at the next dataset once
// ctx is done; scan then returns the context error and acc must not be
// trusted.
func scan(ctx context.Context, e *Engine, par int, todo []int, infos []dsInfo, weights []float64, acc accum) error {
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		lo, hi := w*len(e.order)/par, (w+1)*len(e.order)/par
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, di := range todo {
				if ctx.Err() != nil {
					return
				}
				e.slabs[di].scoreGenes(&infos[di].q, weights[di], lo, hi, acc)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// scoreGenes accumulates this dataset's contribution (at weight w) to the
// score of every gene with global index in [lo, hi): the gene row's mean
// correlation to the query rows q, skipping undefined correlations; a gene
// scores only when at least one pair is defined. Rows are in gene order, so
// the range is a run of rows; a tile the run only partly covers is computed
// whole and only the run's lanes are added — the neighbouring range computes
// it again for its own. (Sharing out tiles instead would not do: datasets
// measuring different genes put one gene in tiles of different numbers, and
// its accumulator cell would then have two writers.) The run is one
// tilecorr.ScoreRange call, which adds the rows onto the grid itself; the
// few tiles it stops at are scored again by scoreFlagged, which adds the
// same correlations in the same order, so a gene's mean has the same bits
// either way.
func (s *slab) scoreGenes(q *tilecorr.Query, w float64, lo, hi int, acc accum) {
	r0, _ := slices.BinarySearch(s.gids, int32(lo))
	r1, _ := slices.BinarySearch(s.gids, int32(hi))
	grid := (*[4][]float64)(&acc)
	var sum, n [tileRows]float64
	for r0 < r1 {
		t, next := s.tiles.ScoreRange(grid, q, s.gids, w, r0, r1)
		if t < 0 {
			return
		}
		s.scoreFlagged(&sum, &n, t, q)
		tilecorr.AddMeans(grid, &sum, &n, s.gids, w, max(r0, t*tileRows), min(r1, (t+1)*tileRows))
		r0 = next
	}
}

// scoreFlagged is tilecorr.ScoreRange's sums for tile t, block by block: Dot
// and FinishBlock, the pairs the finish flags recomputed by exactLanes, and
// the defined correlations added lane by lane in ascending query row order.
func (s *slab) scoreFlagged(sum, n *[tileRows]float64, t int, q *tilecorr.Query) {
	nExp := s.tiles.NExp()
	tile := s.tiles.Tile(t)
	*sum, *n = [tileRows]float64{}, [tileRows]float64{}
	var dots, corr [blockRows * tileRows]float64
	for b := 0; b < q.Blocks(); b++ {
		z, _, rows := q.Block(b, nExp)
		tilecorr.Dot(&dots, tile, z, nExp)
		if m := s.tiles.FinishBlock(&corr, &dots, t, q, b); m != 0 {
			s.exactLanes(&corr, m, t, q.Rows[blockRows*b:])
		}
		for k := 0; k < rows; k++ {
			for j, c := range corr[k*tileRows : (k+1)*tileRows] {
				if !math.IsNaN(c) {
					sum[j] += c
					n[j]++
				}
			}
		}
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
