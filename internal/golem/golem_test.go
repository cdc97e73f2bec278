package golem

import (
	"math"
	"testing"

	"forestview/internal/ontology"
)

// fixture builds a small ontology:
//
//	root -> stress -> heat
//	root -> metabolism
//
// with 20 background genes: g0..g9 annotated to heat (hence stress, root),
// g10..g14 to metabolism, g15..g19 unannotated.
func fixture(t *testing.T) (*ontology.Ontology, *ontology.Annotations, []string) {
	t.Helper()
	o := ontology.New()
	for _, term := range []*ontology.Term{
		{ID: "GO:R", Name: "biological_process"},
		{ID: "GO:S", Name: "response to stress", Parents: []string{"GO:R"}},
		{ID: "GO:H", Name: "response to heat", Parents: []string{"GO:S"}},
		{ID: "GO:M", Name: "metabolism", Parents: []string{"GO:R"}},
	} {
		if err := o.AddTerm(term); err != nil {
			t.Fatal(err)
		}
	}
	ann := ontology.NewAnnotations()
	var bg []string
	for i := 0; i < 20; i++ {
		id := gene(i)
		bg = append(bg, id)
		switch {
		case i < 10:
			ann.Add(id, "GO:H")
		case i < 15:
			ann.Add(id, "GO:M")
		}
	}
	return o, ann, bg
}

func gene(i int) string { return "g" + string(rune('A'+i)) }

func TestNewEnricherErrors(t *testing.T) {
	o, ann, bg := fixture(t)
	if _, err := NewEnricher(nil, ann, bg); err == nil {
		t.Fatal("nil ontology should error")
	}
	if _, err := NewEnricher(o, nil, bg); err == nil {
		t.Fatal("nil annotations should error")
	}
	if _, err := NewEnricher(o, ann, nil); err == nil {
		t.Fatal("empty background should error")
	}
}

func TestAnalyzeFindsPlantedEnrichment(t *testing.T) {
	o, ann, bg := fixture(t)
	e, err := NewEnricher(o, ann, bg)
	if err != nil {
		t.Fatal(err)
	}
	if e.BackgroundSize() != 20 {
		t.Fatalf("N = %d", e.BackgroundSize())
	}
	// Select 6 heat genes: heat should be the top enrichment.
	sel := []string{gene(0), gene(1), gene(2), gene(3), gene(4), gene(5)}
	res, err := e.Analyze(sel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	top := res[0]
	if top.TermID != "GO:H" && top.TermID != "GO:S" {
		t.Fatalf("top term = %s (%s)", top.TermID, top.TermName)
	}
	// Check the 2x2 table of the heat term.
	var heat *Enrichment
	for i := range res {
		if res[i].TermID == "GO:H" {
			heat = &res[i]
		}
	}
	if heat == nil {
		t.Fatal("heat term missing")
	}
	if heat.Selected != 6 || heat.Background != 10 || heat.SelectionSize != 6 || heat.BackgroundSize != 20 {
		t.Fatalf("table = %+v", heat)
	}
	if heat.PValue > 0.01 {
		t.Fatalf("heat p-value = %v, want < 0.01", heat.PValue)
	}
	if heat.Fold < 1.9 {
		t.Fatalf("fold = %v, want ~2", heat.Fold)
	}
	// Metabolism must not appear (no selected genes annotated).
	for _, r := range res {
		if r.TermID == "GO:M" {
			t.Fatal("metabolism should not be tested with 0 selected genes")
		}
	}
}

func TestAnalyzePropagation(t *testing.T) {
	o, ann, bg := fixture(t)
	e, _ := NewEnricher(o, ann, bg)
	sel := []string{gene(0), gene(1), gene(2)}
	res, err := e.Analyze(sel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The stress term must count heat genes through propagation.
	for _, r := range res {
		if r.TermID == "GO:S" {
			if r.Selected != 3 || r.Background != 10 {
				t.Fatalf("stress table = %+v", r)
			}
			return
		}
	}
	t.Fatal("stress term missing — propagation broken")
}

func TestAnalyzeRootNeverEnriched(t *testing.T) {
	o, ann, bg := fixture(t)
	e, _ := NewEnricher(o, ann, bg)
	sel := []string{gene(0), gene(1), gene(11)}
	res, _ := e.Analyze(sel, Options{})
	for _, r := range res {
		if r.TermID == "GO:R" {
			// Root covers 15/20 of the background: p must be large.
			if r.PValue < 0.3 {
				t.Fatalf("root p-value = %v, suspiciously small", r.PValue)
			}
		}
	}
}

func TestAnalyzeMinSelectedMaxPValue(t *testing.T) {
	o, ann, bg := fixture(t)
	e, _ := NewEnricher(o, ann, bg)
	// Three heat genes plus one metabolism gene: GO:M is tested with one
	// selected gene and must be pruned by MinSelected: 2.
	sel := []string{gene(0), gene(1), gene(2), gene(10)}
	all, _ := e.Analyze(sel, Options{})
	strict, _ := e.Analyze(sel, Options{MinSelected: 2})
	if len(strict) >= len(all) {
		t.Fatalf("MinSelected should prune: %d vs %d", len(strict), len(all))
	}
	cut, _ := e.Analyze(sel, Options{MaxPValue: 1e-3})
	for _, r := range cut {
		if r.PValue > 1e-3 {
			t.Fatalf("MaxPValue leak: %v", r.PValue)
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	o, ann, bg := fixture(t)
	e, _ := NewEnricher(o, ann, bg)
	if _, err := e.Analyze([]string{"not-a-gene"}, Options{}); err == nil {
		t.Fatal("selection outside background should error")
	}
	if _, err := e.Analyze(nil, Options{}); err == nil {
		t.Fatal("empty selection should error")
	}
}

func TestAnalyzeCorrectionsOrdering(t *testing.T) {
	o, ann, bg := fixture(t)
	e, _ := NewEnricher(o, ann, bg)
	sel := []string{gene(0), gene(1), gene(2), gene(3), gene(10)}
	res, _ := e.Analyze(sel, Options{})
	for _, r := range res {
		if r.Bonferroni+1e-12 < r.PValue {
			t.Fatalf("Bonferroni %v < raw %v", r.Bonferroni, r.PValue)
		}
		if r.FDR > r.Bonferroni+1e-12 {
			t.Fatalf("FDR %v > Bonferroni %v", r.FDR, r.Bonferroni)
		}
	}
	// Sorted ascending by p.
	for i := 1; i < len(res); i++ {
		if res[i].PValue < res[i-1].PValue {
			t.Fatal("results not sorted by p-value")
		}
	}
}

func TestTopTerms(t *testing.T) {
	rs := []Enrichment{{TermID: "a"}, {TermID: "b"}, {TermID: "c"}}
	if got := TopTerms(rs, 2); len(got) != 2 || got[0] != "a" {
		t.Fatalf("TopTerms = %v", got)
	}
	if got := TopTerms(rs, 10); len(got) != 3 {
		t.Fatalf("TopTerms clamp = %v", got)
	}
}

func TestMinusLog10P(t *testing.T) {
	if v := MinusLog10P(0.01); math.Abs(v-2) > 1e-12 {
		t.Fatalf("-log10(0.01) = %v", v)
	}
	if MinusLog10P(0) != 300 {
		t.Fatal("p=0 should clamp to 300")
	}
	if !math.IsNaN(MinusLog10P(math.NaN())) {
		t.Fatal("NaN should stay NaN")
	}
}

func TestLocalMapAncestorsAndDescendants(t *testing.T) {
	o, _, _ := fixture(t)
	g := LocalMap(o, []string{"GO:S"}, 1)
	// Must include focus, its ancestor root, and child heat.
	for _, id := range []string{"GO:S", "GO:R", "GO:H"} {
		if !g.Contains(id) {
			t.Fatalf("local map missing %s: %v", id, g.Nodes)
		}
	}
	if g.Contains("GO:M") {
		t.Fatal("metabolism should not be in the stress local map")
	}
	// Edges only between included nodes.
	for _, e := range g.Edges {
		if !g.Contains(e[0]) || !g.Contains(e[1]) {
			t.Fatalf("edge %v dangles", e)
		}
	}
	if !g.Focus["GO:S"] {
		t.Fatal("focus not marked")
	}
}

func TestLocalMapDepthZero(t *testing.T) {
	o, _, _ := fixture(t)
	g := LocalMap(o, []string{"GO:S"}, 0)
	if g.Contains("GO:H") {
		t.Fatal("descendDepth=0 must not include children")
	}
}

func TestLocalMapUnknownFocus(t *testing.T) {
	o, _, _ := fixture(t)
	g := LocalMap(o, []string{"GO:NOPE"}, 1)
	if len(g.Nodes) != 0 {
		t.Fatalf("unknown focus should give empty map: %v", g.Nodes)
	}
}

func TestLocalMapMultipleFocus(t *testing.T) {
	o, _, _ := fixture(t)
	g := LocalMap(o, []string{"GO:H", "GO:M"}, 0)
	for _, id := range []string{"GO:H", "GO:M", "GO:S", "GO:R"} {
		if !g.Contains(id) {
			t.Fatalf("missing %s", id)
		}
	}
}

func TestLayoutGraph(t *testing.T) {
	o, _, _ := fixture(t)
	g := LocalMap(o, []string{"GO:H", "GO:M"}, 0)
	lay := LayoutGraph(g, 4)
	if lay.LayerCount != 3 {
		t.Fatalf("layers = %d, want 3 (root/stress+metabolism/heat)", lay.LayerCount)
	}
	// Root on layer 0.
	if lay.Pos["GO:R"].Layer != 0 {
		t.Fatalf("root layer = %d", lay.Pos["GO:R"].Layer)
	}
	if lay.Pos["GO:H"].Layer != 2 {
		t.Fatalf("heat layer = %d", lay.Pos["GO:H"].Layer)
	}
	// Every node has a unique (col, layer).
	seen := make(map[GridPoint]string)
	for n, p := range lay.Pos {
		if other, dup := seen[p]; dup {
			t.Fatalf("nodes %s and %s share position %+v", n, other, p)
		}
		seen[p] = n
	}
	// Parents are always on a strictly smaller layer.
	for _, e := range g.Edges {
		if lay.Pos[e[1]].Layer >= lay.Pos[e[0]].Layer {
			t.Fatalf("edge %v not downward: %d -> %d",
				e, lay.Pos[e[1]].Layer, lay.Pos[e[0]].Layer)
		}
	}
}

func TestLayoutBarycenterReducesCrossings(t *testing.T) {
	// Build a two-layer graph engineered to cross badly in alphabetical
	// order: a->x2, b->x1 (x1 < x2 alphabetically but reversed by edges).
	o := ontology.New()
	_ = o.AddTerm(&ontology.Term{ID: "R", Name: "root"})
	_ = o.AddTerm(&ontology.Term{ID: "p1", Parents: []string{"R"}})
	_ = o.AddTerm(&ontology.Term{ID: "p2", Parents: []string{"R"}})
	_ = o.AddTerm(&ontology.Term{ID: "a-leaf", Parents: []string{"p2"}})
	_ = o.AddTerm(&ontology.Term{ID: "b-leaf", Parents: []string{"p1"}})
	g := LocalMap(o, []string{"a-leaf", "b-leaf"}, 0)
	lay := LayoutGraph(g, 4)
	if c := crossingCount(g, lay); c != 0 {
		t.Fatalf("crossings = %d, want 0 after barycenter", c)
	}
}

// crossingCount returns the number of pairwise edge crossings in the
// layout.
func crossingCount(g *Graph, lay *Layout) int {
	// Two edges (u1->v1), (u2->v2) between the same pair of layers cross
	// when their endpoints interleave.
	type edge struct {
		fromCol, toCol, fromLayer int
	}
	var edges []edge
	for _, e := range g.Edges {
		a, b := lay.Pos[e[0]], lay.Pos[e[1]]
		// Normalize: from the upper (smaller) layer to the lower.
		if a.Layer > b.Layer {
			a, b = b, a
		}
		edges = append(edges, edge{fromCol: a.Col, toCol: b.Col, fromLayer: a.Layer})
	}
	crossings := 0
	for i := 0; i < len(edges); i++ {
		for j := i + 1; j < len(edges); j++ {
			if edges[i].fromLayer != edges[j].fromLayer {
				continue
			}
			a, b := edges[i], edges[j]
			if (a.fromCol-b.fromCol)*(a.toCol-b.toCol) < 0 {
				crossings++
			}
		}
	}
	return crossings
}

func TestLayoutEmptyGraph(t *testing.T) {
	g := &Graph{Focus: map[string]bool{}}
	lay := LayoutGraph(g, 4)
	if lay.MaxWidth != 0 {
		t.Fatalf("empty layout width = %d", lay.MaxWidth)
	}
}
