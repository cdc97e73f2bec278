// Package ontology implements the Gene Ontology substrate behind GOLEM
// (Section 3, Figure 5 of the paper): a directed acyclic graph of terms,
// the OBO flat-file format the GO Consortium distributes, gene-to-term
// annotations with ancestor propagation, and a synthetic GO generator used
// because the real ontology cannot ship with an offline reproduction.
package ontology

import (
	"errors"
	"fmt"
	"sort"
)

// Term is one node of the ontology graph.
type Term struct {
	// ID is the accession, e.g. "GO:0006950".
	ID string
	// Name is the human-readable label, e.g. "response to stress".
	Name string
	// Namespace is the GO aspect (biological_process, molecular_function,
	// cellular_component).
	Namespace string
	// Parents lists the IDs this term is_a / part_of children of.
	Parents []string
	// Obsolete terms are kept for parsing fidelity but excluded from
	// traversal and enrichment.
	Obsolete bool
}

// Ontology is a DAG of terms. Edges run child -> parent ("is_a").
type Ontology struct {
	terms    map[string]*Term
	children map[string][]string
	ordered  []string // insertion order for deterministic iteration
}

// New returns an empty ontology.
func New() *Ontology {
	return &Ontology{
		terms:    make(map[string]*Term),
		children: make(map[string][]string),
	}
}

// AddTerm inserts a term. Re-adding an existing ID replaces the term's
// fields and re-links its parent edges.
func (o *Ontology) AddTerm(t *Term) error {
	if t == nil || t.ID == "" {
		return errors.New("ontology: term must have an ID")
	}
	if old, ok := o.terms[t.ID]; ok {
		// Unlink previous child edges.
		for _, p := range old.Parents {
			kids := o.children[p]
			for i, k := range kids {
				if k == t.ID {
					o.children[p] = append(kids[:i], kids[i+1:]...)
					break
				}
			}
		}
	} else {
		o.ordered = append(o.ordered, t.ID)
	}
	cp := *t
	cp.Parents = append([]string(nil), t.Parents...)
	o.terms[t.ID] = &cp
	for _, p := range cp.Parents {
		o.children[p] = append(o.children[p], t.ID)
	}
	return nil
}

// Term returns the term with the given ID, or nil.
func (o *Ontology) Term(id string) *Term { return o.terms[id] }

// Len returns the number of terms (including obsolete ones).
func (o *Ontology) Len() int { return len(o.terms) }

// Children returns the direct children of a term (copy).
func (o *Ontology) Children(id string) []string {
	return append([]string(nil), o.children[id]...)
}

// Parents returns the direct parents of a term (copy), empty for unknown
// IDs.
func (o *Ontology) Parents(id string) []string {
	if t := o.terms[id]; t != nil {
		return append([]string(nil), t.Parents...)
	}
	return nil
}

// Roots returns the IDs of non-obsolete terms with no parents, sorted.
func (o *Ontology) Roots() []string {
	var out []string
	for _, id := range o.ordered {
		t := o.terms[id]
		if !t.Obsolete && len(t.Parents) == 0 {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Ancestors returns the transitive parents of id (excluding id itself),
// deduplicated, sorted. Unknown IDs yield nil.
func (o *Ontology) Ancestors(id string) []string {
	if o.terms[id] == nil {
		return nil
	}
	seen := make(map[string]bool)
	stack := append([]string(nil), o.terms[id].Parents...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		if t := o.terms[n]; t != nil {
			stack = append(stack, t.Parents...)
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Validate checks referential integrity and acyclicity.
func (o *Ontology) Validate() error {
	for id, t := range o.terms {
		for _, p := range t.Parents {
			if o.terms[p] == nil {
				return fmt.Errorf("ontology: term %s references unknown parent %s", id, p)
			}
		}
	}
	// Kahn's algorithm over child->parent edges detects cycles.
	indeg := make(map[string]int, len(o.terms)) // number of unprocessed parents
	for id, t := range o.terms {
		indeg[id] = len(t.Parents)
	}
	queue := make([]string, 0, len(o.terms))
	for id, d := range indeg {
		if d == 0 {
			queue = append(queue, id)
		}
	}
	processed := 0
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		processed++
		for _, c := range o.children[n] {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if processed != len(o.terms) {
		return errors.New("ontology: graph contains a cycle")
	}
	return nil
}
