package ontology

import (
	"errors"
	"sort"
)

// The methods below are the tests' view of an ontology and its
// annotations: the property and fuzz tests check the parser and Ancestors
// through them. No binary calls them.

// TermIDs returns all term IDs in insertion order.
func (o *Ontology) TermIDs() []string { return append([]string(nil), o.ordered...) }

// Descendants returns the transitive children of id (excluding id itself),
// deduplicated, sorted.
func (o *Ontology) Descendants(id string) []string {
	if o.terms[id] == nil {
		return nil
	}
	seen := make(map[string]bool)
	stack := append([]string(nil), o.children[id]...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		stack = append(stack, o.children[n]...)
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Depth returns the length of the longest path from a root to id (roots
// have depth 0), or -1 for unknown IDs. Longest-path depth is what layered
// DAG drawing uses.
func (o *Ontology) Depth(id string) int {
	if o.terms[id] == nil {
		return -1
	}
	memo := make(map[string]int)
	var depth func(string) int
	depth = func(n string) int {
		if d, ok := memo[n]; ok {
			return d
		}
		memo[n] = 0 // break accidental cycles defensively
		t := o.terms[n]
		best := 0
		for _, p := range t.Parents {
			if o.terms[p] == nil {
				continue
			}
			if d := depth(p) + 1; d > best {
				best = d
			}
		}
		memo[n] = best
		return best
	}
	return depth(id)
}

// TopologicalOrder returns term IDs parents-before-children. It fails on
// cyclic graphs.
func (o *Ontology) TopologicalOrder() ([]string, error) {
	indeg := make(map[string]int, len(o.terms))
	for id, t := range o.terms {
		indeg[id] = len(t.Parents)
	}
	// Deterministic processing: seed queue in insertion order.
	var queue []string
	for _, id := range o.ordered {
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	out := make([]string, 0, len(o.terms))
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		out = append(out, n)
		kids := append([]string(nil), o.children[n]...)
		sort.Strings(kids)
		for _, c := range kids {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(out) != len(o.terms) {
		return nil, errors.New("ontology: graph contains a cycle")
	}
	return out, nil
}

// Has reports whether gene is annotated to term.
func (a *Annotations) Has(gene, term string) bool {
	return a.direct[gene][term]
}
