package oracle

import (
	"errors"
	"math"
	"sort"

	"forestview/internal/ontology"
	"forestview/internal/stats"
)

// Enrichment is one term's test in an enrichment analysis.
type Enrichment struct {
	TermID         string
	TermName       string
	Selected       int
	Background     int
	SelectionSize  int
	BackgroundSize int
	PValue         float64
	Bonferroni     float64
	FDR            float64
	Fold           float64
}

// Terms is GOLEM's testable family over one background: every
// non-obsolete term, after the true-path rule, with the background genes
// it annotates, as maps.
type Terms struct {
	onto       *ontology.Ontology
	background map[string]bool
	genes      map[string]map[string]bool
}

// NewTerms propagates the direct annotations up the ontology and keeps,
// for each non-obsolete term annotating at least one background gene, the
// set of those genes.
func NewTerms(o *ontology.Ontology, direct *ontology.Annotations, background []string) *Terms {
	t := &Terms{onto: o, background: make(map[string]bool, len(background)), genes: map[string]map[string]bool{}}
	for _, g := range background {
		t.background[g] = true
	}
	for term, genes := range direct.Propagate(o).GenesPerTerm() {
		if ot := o.Term(term); ot != nil && ot.Obsolete {
			continue
		}
		set := make(map[string]bool)
		for g := range genes {
			if t.background[g] {
				set[g] = true
			}
		}
		if len(set) > 0 {
			t.genes[term] = set
		}
	}
	return t
}

// Enrich tests a selection against every term that holds at least
// minSelected of its background genes (1 if less): the hypergeometric
// upper tail P(X >= k) with per-call math.Lgamma coefficients, then
// Bonferroni and Benjamini-Hochberg over the tested family, then, if
// maxP > 0, only the terms with p <= maxP, by ascending p and TermID.
func (t *Terms) Enrich(selection []string, minSelected int, maxP float64) ([]Enrichment, error) {
	if minSelected < 1 {
		minSelected = 1
	}
	sel := make(map[string]bool, len(selection))
	for _, g := range selection {
		if t.background[g] {
			sel[g] = true
		}
	}
	if len(sel) == 0 {
		return nil, errors.New("golem: no selection genes in the background")
	}
	N, n := len(t.background), len(sel)
	terms := make([]string, 0, len(t.genes))
	for term := range t.genes {
		terms = append(terms, term)
	}
	sort.Strings(terms)
	var results []Enrichment
	for _, term := range terms {
		tg := t.genes[term]
		k := 0
		for g := range sel {
			if tg[g] {
				k++
			}
		}
		if k < minSelected {
			continue
		}
		K := len(tg)
		name := term
		if ot := t.onto.Term(term); ot != nil {
			name = ot.Name
		}
		results = append(results, Enrichment{
			TermID: term, TermName: name,
			Selected: k, Background: K, SelectionSize: n, BackgroundSize: N,
			PValue: HypergeomUpperTail(k, N, K, n),
			Fold:   stats.FoldEnrichment(k, N, K, n),
		})
	}
	ps := make([]float64, len(results))
	for i := range results {
		ps[i] = results[i].PValue
	}
	bon, fdr := stats.Bonferroni(ps), stats.BenjaminiHochberg(ps)
	kept := results[:0]
	for i, r := range results {
		r.Bonferroni, r.FDR = bon[i], fdr[i]
		if maxP <= 0 || r.PValue <= maxP {
			kept = append(kept, r)
		}
	}
	sort.SliceStable(kept, func(a, b int) bool {
		if kept[a].PValue != kept[b].PValue {
			return kept[a].PValue < kept[b].PValue
		}
		return kept[a].TermID < kept[b].TermID
	})
	return kept, nil
}

// HypergeomUpperTail is P(X >= k) for X hypergeometric with population N,
// K successes in it and n draws: the tail's log-probabilities from three
// math.Lgamma calls per binomial coefficient, summed scaled by the
// largest.
func HypergeomUpperTail(k, N, K, n int) float64 {
	if k <= 0 {
		return 1
	}
	hi := min(n, K)
	if k > hi {
		return 0
	}
	maxLog := math.Inf(-1)
	logs := make([]float64, 0, hi-k+1)
	for i := k; i <= hi; i++ {
		lp := HypergeomLogPMF(i, N, K, n)
		if math.IsInf(lp, -1) {
			continue
		}
		logs = append(logs, lp)
		maxLog = max(maxLog, lp)
	}
	if len(logs) == 0 {
		return 0
	}
	s := 0.0
	for _, lp := range logs {
		s += math.Exp(lp - maxLog)
	}
	return stats.Clamp(math.Exp(maxLog)*s, 0, 1)
}

// HypergeomLogPMF is log P(X = k), -Inf where k is impossible.
func HypergeomLogPMF(k, N, K, n int) float64 {
	if N < 0 || K < 0 || K > N || n < 0 || n > N {
		return math.Inf(-1)
	}
	if k < 0 || k > n || k > K || n-k > N-K {
		return math.Inf(-1)
	}
	return LogChoose(K, k) + LogChoose(N-K, n-k) - LogChoose(N, n)
}

// LogChoose is log C(n, k) from three math.Lgamma calls, -Inf where k is
// out of range.
func LogChoose(n, k int) float64 {
	if k < 0 || k > n || n < 0 {
		return math.Inf(-1)
	}
	if k == 0 || k == n {
		return 0
	}
	ln1, _ := math.Lgamma(float64(n + 1))
	lk1, _ := math.Lgamma(float64(k + 1))
	lnk1, _ := math.Lgamma(float64(n - k + 1))
	return ln1 - lk1 - lnk1
}
