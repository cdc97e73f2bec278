// Package golem reimplements GOLEM (Gene Ontology Local Exploration Map,
// Sealfon et al. 2006), the enrichment-analysis and GO-visualization tool
// the paper integrates with ForestView (Section 3, Figure 5): hypergeometric
// functional-enrichment testing of a gene list with multiple-hypothesis
// correction, extraction of the local DAG neighbourhood around significant
// terms, and a layered layout of that neighbourhood for display.
//
// Scoring runs on a dense bitset kernel (the same playbook as the SPELL and
// clustering kernels): NewEnricher interns the background into an integer
// gene index and packs every testable term's annotated-gene set into one
// []uint64 bitset row of a shared arena, so Analyze is one selection bitset
// plus an AND-popcount per term — no map walks, no string hashing, no
// per-call sorting. internal/oracle's Terms.Enrich is the map-walk
// definition the kernel is held to by parity_test.go.
package golem

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"sort"

	"forestview/internal/ontology"
	"forestview/internal/stats"
)

// ErrNoSelection reports a selection with no gene in the background
// universe. Callers merging a *subset* of the background slices (a degraded
// scatter) should treat it as inconclusive when the full universe is known
// to hold some of the genes — the unreachable slices may carry them.
var ErrNoSelection = errors.New("golem: no selection genes in the background")

// Enrichment is the test result for one term.
type Enrichment struct {
	TermID   string
	TermName string
	// Selected is k: selection genes annotated to the term.
	Selected int
	// Background is K: background genes annotated to the term.
	Background int
	// SelectionSize (n) and BackgroundSize (N) complete the 2×2 table.
	SelectionSize  int
	BackgroundSize int
	// PValue is the hypergeometric upper tail P(X >= k).
	PValue float64
	// Bonferroni and FDR are the corrected values across all tested terms.
	Bonferroni float64
	FDR        float64
	// Fold is the observed/expected annotation ratio.
	Fold float64
}

// termEntry is one testable term in the kernel's sorted arena. Its bitset
// row lives at bits[row*words : (row+1)*words].
type termEntry struct {
	id   string
	name string
	k    int // K: background genes annotated to the term
}

// Enricher performs enrichment analyses against a fixed background. Build
// it once per (ontology, annotations, background) and reuse it for many
// selections — ForestView calls it every time the user re-selects genes.
// An Enricher is immutable after NewEnricher and safe for concurrent use;
// it keeps nothing of the ontology and annotations it was built from.
type Enricher struct {
	// The dense kernel state: every background gene owns one bit position,
	// every testable term one packed bitset row in a shared arena, rows in
	// ascending TermID order so Analyze needs no per-call sort.
	geneIdx map[string]int32 // background gene -> bit position [0, N)
	words   int              // uint64 words per bitset row: ceil(N/64)
	terms   []termEntry      // sorted by TermID
	bits    []uint64         // term arena, len = len(terms)*words

	// fingerprint identifies the exact kernel layout (gene bit order, term
	// rows, per-term K) so distributed partials from differently-built
	// enrichers can never be merged into a silently wrong table.
	fingerprint uint64
	catalog     *TermCatalog // what a merge needs of the layout, see Catalog
}

// NewEnricher prepares an enrichment context. annotations are direct
// (unpropagated); the constructor applies the true-path rule. background
// lists the gene universe; genes without annotations still count toward N,
// mirroring GOLEM's population handling.
func NewEnricher(o *ontology.Ontology, direct *ontology.Annotations, background []string) (*Enricher, error) {
	if o == nil || direct == nil {
		return nil, errors.New("golem: nil ontology or annotations")
	}
	if len(background) == 0 {
		return nil, errors.New("golem: empty background")
	}
	e := &Enricher{geneIdx: make(map[string]int32, len(background))}
	fp := fnv.New64a()
	for _, g := range background {
		if _, dup := e.geneIdx[g]; !dup {
			// First occurrence claims the bit; duplicate universe entries
			// collapse, as a set of genes would.
			e.geneIdx[g] = int32(len(e.geneIdx))
			// The fingerprint covers the claimed gene order: two enrichers
			// agree on it iff their background slices partition identically,
			// which is exactly when their word-range partials compose.
			fp.Write([]byte(g))
			fp.Write([]byte{0})
		}
	}
	// The propagated per-term gene sets are needed only transiently here:
	// they compile into the packed arena and are then released, so the
	// serving path never carries the map-of-maps weight.
	termGenes := e.termGenes(o, direct)

	// Pack the term arena in sorted order.
	N := len(e.geneIdx)
	e.words = (N + 63) / 64
	e.terms = make([]termEntry, 0, len(termGenes))
	ids := make([]string, 0, len(termGenes))
	for t := range termGenes {
		ids = append(ids, t)
	}
	sort.Strings(ids)
	e.bits = make([]uint64, len(ids)*e.words)
	for row, id := range ids {
		set := termGenes[id]
		name := id
		if t := o.Term(id); t != nil {
			name = t.Name
		}
		e.terms = append(e.terms, termEntry{id: id, name: name, k: len(set)})
		tb := e.bits[row*e.words : (row+1)*e.words]
		for g := range set {
			gi := e.geneIdx[g]
			tb[gi>>6] |= 1 << uint(gi&63)
		}
	}
	// Fold the term layout into the fingerprint: row order, IDs and per-term
	// K pin the arena shape a PartialCounts was computed against.
	var buf [8]byte
	for i := range e.terms {
		fp.Write([]byte(e.terms[i].id))
		fp.Write([]byte{0})
		binary.LittleEndian.PutUint64(buf[:], uint64(e.terms[i].k))
		fp.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(N))
	fp.Write(buf[:])
	e.fingerprint = fp.Sum64()
	e.catalog = &TermCatalog{Fingerprint: e.fingerprint, BackgroundSize: N, Terms: make([]TermInfo, len(e.terms))}
	for i, t := range e.terms {
		e.catalog.Terms[i] = TermInfo{ID: t.id, Name: t.name}
	}
	// The universe size bounds every log-factorial the hypergeometric tests
	// will ever need; growing the shared table here keeps Analyze pure
	// lookups.
	stats.GrowLnFactorial(N)
	return e, nil
}

// termGenes applies the true-path rule and inverts the annotations into
// term -> background-gene sets, skipping obsolete terms (untestable;
// keeping them out keeps NumTerms honest) and terms annotating no
// background gene.
func (e *Enricher) termGenes(o *ontology.Ontology, direct *ontology.Annotations) map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	for term, genes := range direct.Propagate(o).GenesPerTerm() {
		if t := o.Term(term); t != nil && t.Obsolete {
			continue
		}
		set := make(map[string]bool)
		for g := range genes {
			if _, ok := e.geneIdx[g]; ok {
				set[g] = true
			}
		}
		if len(set) > 0 {
			out[term] = set
		}
	}
	return out
}

// BackgroundSize returns N, the size of the gene universe.
func (e *Enricher) BackgroundSize() int { return len(e.geneIdx) }

// NumTerms returns the number of testable terms — terms annotating at
// least one background gene after propagation. The query daemon reports it
// in /api/stats.
func (e *Enricher) NumTerms() int { return len(e.terms) }

// Options tune an analysis.
type Options struct {
	// MinSelected skips terms with fewer than this many selection genes
	// (default 1).
	MinSelected int
	// MaxPValue filters results by raw p-value (0 = keep all).
	MaxPValue float64
}

// Analyze tests the selection against every term with at least one
// selection gene and returns results sorted by ascending p-value. Genes
// outside the background are ignored (a selection pasted from another
// dataset may contain IDs this universe lacks).
func (e *Enricher) Analyze(selection []string, opt Options) ([]Enrichment, error) {
	return e.AnalyzeCtx(context.Background(), selection, opt)
}

// countShardTerms is the minimum number of terms a single worker keeps:
// below par×this, the AND-popcount pass runs serially — goroutine handoff
// would cost more than the counting.
const countShardTerms = 256

// AnalyzeCtx is Analyze with cancellation: the term-count shards poll ctx,
// so a disconnected client stops paying for its enrichment mid-scan. The
// result is identical to Analyze's for a live context; a canceled one
// returns ctx.Err().
//
// An analysis is the merge of the one slice that covers the whole
// background: a single process is a fleet of one, and runs the count pass
// and the scoring a coordinator runs over the wire.
func (e *Enricher) AnalyzeCtx(ctx context.Context, selection []string, opt Options) ([]Enrichment, error) {
	p, err := e.PartialAnalyzeCtx(ctx, selection, 0, 1)
	if err != nil {
		return nil, err
	}
	return MergeCounts(e.catalog, []*PartialCounts{p}, opt)
}

// finishAnalysis applies the multiple-hypothesis corrections over the
// tested family, the MaxPValue filter, and the final (p, TermID) ordering —
// MergeCounts' last step.
func finishAnalysis(results []Enrichment, opt Options) []Enrichment {
	ps := make([]float64, len(results))
	for i := range results {
		ps[i] = results[i].PValue
	}
	bon := stats.Bonferroni(ps)
	fdr := stats.BenjaminiHochberg(ps)
	for i := range results {
		results[i].Bonferroni = bon[i]
		results[i].FDR = fdr[i]
	}
	if opt.MaxPValue > 0 {
		kept := results[:0]
		for _, r := range results {
			if r.PValue <= opt.MaxPValue {
				kept = append(kept, r)
			}
		}
		results = kept
	}
	sort.SliceStable(results, func(a, b int) bool {
		if results[a].PValue != results[b].PValue {
			return results[a].PValue < results[b].PValue
		}
		return results[a].TermID < results[b].TermID
	})
	return results
}

// TopTerms returns the IDs of the first n results.
func TopTerms(results []Enrichment, n int) []string {
	if n > len(results) {
		n = len(results)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = results[i].TermID
	}
	return out
}

// MinusLog10P is a display helper: -log10(p) clamped to 300 for p = 0.
func MinusLog10P(p float64) float64 {
	if math.IsNaN(p) {
		return math.NaN()
	}
	if p <= 0 {
		return 300
	}
	v := -math.Log10(p)
	if v > 300 {
		return 300
	}
	return v
}
