package golem

import (
	"sort"

	"forestview/internal/ontology"
)

// Graph is a term subgraph: the "local exploration map" GOLEM displays
// around the terms a user focuses on.
type Graph struct {
	// Nodes are term IDs, deterministic order.
	Nodes []string
	// Edges run child -> parent, both endpoints guaranteed in Nodes.
	Edges [][2]string
	// Focus marks the seed terms the map was built around.
	Focus map[string]bool
}

// LocalMap extracts the neighbourhood of the focus terms: every ancestor up
// to the roots (so the user always sees the path of meaning from the root)
// plus descendants down to depth descendDepth (0 = none).
func LocalMap(o *ontology.Ontology, focus []string, descendDepth int) *Graph {
	g := &Graph{Focus: make(map[string]bool)}
	include := make(map[string]bool)
	for _, f := range focus {
		if o.Term(f) == nil {
			continue
		}
		g.Focus[f] = true
		include[f] = true
		for _, a := range o.Ancestors(f) {
			include[a] = true
		}
		// Bounded downward BFS.
		frontier := []string{f}
		for d := 0; d < descendDepth; d++ {
			var next []string
			for _, n := range frontier {
				for _, c := range o.Children(n) {
					if !include[c] {
						include[c] = true
						next = append(next, c)
					}
				}
			}
			frontier = next
		}
	}
	for id := range include {
		g.Nodes = append(g.Nodes, id)
	}
	sort.Strings(g.Nodes)
	for _, id := range g.Nodes {
		for _, p := range o.Parents(id) {
			if include[p] {
				g.Edges = append(g.Edges, [2]string{id, p})
			}
		}
	}
	sort.Slice(g.Edges, func(a, b int) bool {
		if g.Edges[a][0] != g.Edges[b][0] {
			return g.Edges[a][0] < g.Edges[b][0]
		}
		return g.Edges[a][1] < g.Edges[b][1]
	})
	return g
}

// Contains reports whether the graph includes the term.
func (g *Graph) Contains(id string) bool {
	i := sort.SearchStrings(g.Nodes, id)
	return i < len(g.Nodes) && g.Nodes[i] == id
}

// parentsIn returns the in-graph parents of a node.
func (g *Graph) parentsIn(id string) []string {
	var out []string
	for _, e := range g.Edges {
		if e[0] == id {
			out = append(out, e[1])
		}
	}
	return out
}

// childrenIn returns the in-graph children of a node.
func (g *Graph) childrenIn(id string) []string {
	var out []string
	for _, e := range g.Edges {
		if e[1] == id {
			out = append(out, e[0])
		}
	}
	return out
}
