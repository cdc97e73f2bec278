package ontology

import "sort"

// Annotations maps genes to the ontology terms they are directly annotated
// to. The true-path rule of GO — a gene annotated to a term is implicitly
// annotated to every ancestor — is applied by Propagate.
type Annotations struct {
	direct map[string]map[string]bool // gene -> term set
	genes  []string                   // insertion order
}

// NewAnnotations returns an empty annotation set.
func NewAnnotations() *Annotations {
	return &Annotations{direct: make(map[string]map[string]bool)}
}

// Add records that gene is annotated to term.
func (a *Annotations) Add(gene, term string) {
	set, ok := a.direct[gene]
	if !ok {
		set = make(map[string]bool)
		a.direct[gene] = set
		a.genes = append(a.genes, gene)
	}
	set[term] = true
}

// Genes returns the annotated gene IDs in insertion order.
func (a *Annotations) Genes() []string { return append([]string(nil), a.genes...) }

// TermsOf returns the direct terms of gene, sorted.
func (a *Annotations) TermsOf(gene string) []string {
	set := a.direct[gene]
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of annotated genes.
func (a *Annotations) Len() int { return len(a.genes) }

// Propagate returns a new annotation set where every gene also carries all
// ancestors of its direct terms (the GO true-path rule). Enrichment must
// run on propagated annotations or parent terms would be undercounted.
func (a *Annotations) Propagate(o *Ontology) *Annotations {
	out := NewAnnotations()
	ancCache := make(map[string][]string)
	for _, gene := range a.genes {
		for term := range a.direct[gene] {
			out.Add(gene, term)
			anc, ok := ancCache[term]
			if !ok {
				anc = o.Ancestors(term)
				ancCache[term] = anc
			}
			for _, t := range anc {
				out.Add(gene, t)
			}
		}
	}
	return out
}

// GenesPerTerm inverts the mapping: term -> set of genes annotated to it.
func (a *Annotations) GenesPerTerm() map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	for _, gene := range a.genes {
		for term := range a.direct[gene] {
			set, ok := out[term]
			if !ok {
				set = make(map[string]bool)
				out[term] = set
			}
			set[gene] = true
		}
	}
	return out
}
