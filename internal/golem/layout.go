package golem

import (
	"sort"
)

// Layout places a local map on an integer grid for rendering: layers top
// (roots) to bottom (leaves), a barycenter pass to limit edge crossings,
// and unit-spaced slots within each layer. The renderer scales grid
// coordinates to pixels.
type Layout struct {
	// Pos maps each node to its (column, layer) grid position.
	Pos map[string]GridPoint
	// LayerCount and MaxWidth give the grid extent.
	LayerCount int
	MaxWidth   int
	// Layers lists nodes per layer in final left-to-right order.
	Layers [][]string
}

// GridPoint is a position on the layout grid.
type GridPoint struct {
	Col, Layer int
}

// LayoutGraph computes a layered layout of g. The sweeps parameter bounds
// the barycenter ordering iterations (default 4 when <= 0).
func LayoutGraph(g *Graph, sweeps int) *Layout {
	if sweeps <= 0 {
		sweeps = 4
	}
	// Longest-path layering within the subgraph: layer(n) = 1 + max layer
	// of in-graph parents.
	layer := make(map[string]int, len(g.Nodes))
	var assign func(string) int
	assigning := make(map[string]bool)
	assign = func(n string) int {
		if l, ok := layer[n]; ok {
			return l
		}
		if assigning[n] {
			return 0 // defensive: cycles cannot occur in validated ontologies
		}
		assigning[n] = true
		best := 0
		for _, p := range g.parentsIn(n) {
			if l := assign(p) + 1; l > best {
				best = l
			}
		}
		layer[n] = best
		delete(assigning, n)
		return best
	}
	maxLayer := 0
	for _, n := range g.Nodes {
		if l := assign(n); l > maxLayer {
			maxLayer = l
		}
	}
	layers := make([][]string, maxLayer+1)
	for _, n := range g.Nodes {
		layers[layer[n]] = append(layers[layer[n]], n)
	}
	for _, l := range layers {
		sort.Strings(l) // deterministic start
	}

	// Barycenter sweeps: order each layer by the mean position of its
	// neighbours in the adjacent layer, alternating downward and upward.
	pos := make(map[string]int, len(g.Nodes))
	reindex := func(l []string) {
		for i, n := range l {
			pos[n] = i
		}
	}
	for _, l := range layers {
		reindex(l)
	}
	bary := func(n string, neighbours []string) (float64, bool) {
		if len(neighbours) == 0 {
			return float64(pos[n]), false
		}
		s := 0.0
		for _, m := range neighbours {
			s += float64(pos[m])
		}
		return s / float64(len(neighbours)), true
	}
	for sweep := 0; sweep < sweeps; sweep++ {
		if sweep%2 == 0 {
			for li := 1; li <= maxLayer; li++ {
				sortLayerByBarycenter(layers[li], func(n string) (float64, bool) {
					return bary(n, g.parentsIn(n))
				})
				reindex(layers[li])
			}
		} else {
			for li := maxLayer - 1; li >= 0; li-- {
				sortLayerByBarycenter(layers[li], func(n string) (float64, bool) {
					return bary(n, g.childrenIn(n))
				})
				reindex(layers[li])
			}
		}
	}

	out := &Layout{
		Pos:        make(map[string]GridPoint, len(g.Nodes)),
		LayerCount: maxLayer + 1,
		Layers:     layers,
	}
	for li, l := range layers {
		if len(l) > out.MaxWidth {
			out.MaxWidth = len(l)
		}
		for ci, n := range l {
			out.Pos[n] = GridPoint{Col: ci, Layer: li}
		}
	}
	return out
}

// sortLayerByBarycenter stably reorders a layer by barycenter value,
// keeping nodes without neighbours in place relative to the sorted ones.
func sortLayerByBarycenter(l []string, bary func(string) (float64, bool)) {
	type entry struct {
		n    string
		b    float64
		real bool
	}
	entries := make([]entry, len(l))
	for i, n := range l {
		b, ok := bary(n)
		entries[i] = entry{n, b, ok}
	}
	sort.SliceStable(entries, func(a, b int) bool {
		return entries[a].b < entries[b].b
	})
	for i, e := range entries {
		l[i] = e.n
	}
}
