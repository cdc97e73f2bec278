package golem

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"forestview/internal/ontology"
	"forestview/internal/oracle"
)

// refEnricher is an Enricher beside the oracle's terms over the same
// inputs, which the Enricher does not keep.
type refEnricher struct {
	*Enricher
	ref *oracle.Terms
}

func newRefEnricher(t *testing.T, o *ontology.Ontology, ann *ontology.Annotations, background []string) *refEnricher {
	t.Helper()
	enr, err := NewEnricher(o, ann, background)
	if err != nil {
		t.Fatal(err)
	}
	return &refEnricher{enr, oracle.NewTerms(o, ann, background)}
}

// ReferenceAnalyze is oracle.Terms.Enrich as []Enrichment.
func (e *refEnricher) ReferenceAnalyze(selection []string, opt Options) ([]Enrichment, error) {
	ref, err := e.ref.Enrich(selection, opt.MinSelected, opt.MaxPValue)
	if err != nil {
		return nil, err
	}
	out := make([]Enrichment, len(ref))
	for i, r := range ref {
		out[i] = Enrichment(r)
	}
	return out, nil
}

// assertEnrichmentsEqual holds the kernel to the reference: the slices must
// be identical element by element — same terms in the same order, same 2×2
// tables — with all floating-point fields within tol (the arena packs the
// same sets the maps hold, so in practice they agree bitwise).
func assertEnrichmentsEqual(t *testing.T, got, want []Enrichment, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("result count %d vs %d", len(got), len(want))
	}
	feq := func(a, b float64) bool {
		if math.IsNaN(a) && math.IsNaN(b) {
			return true
		}
		return math.Abs(a-b) <= tol
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.TermID != w.TermID || g.TermName != w.TermName {
			t.Fatalf("rank %d: term %s(%s) vs %s(%s)", i, g.TermID, g.TermName, w.TermID, w.TermName)
		}
		if g.Selected != w.Selected || g.Background != w.Background ||
			g.SelectionSize != w.SelectionSize || g.BackgroundSize != w.BackgroundSize {
			t.Fatalf("rank %d (%s): table %+v vs %+v", i, w.TermID, g, w)
		}
		if !feq(g.PValue, w.PValue) || !feq(g.Bonferroni, w.Bonferroni) ||
			!feq(g.FDR, w.FDR) || !feq(g.Fold, w.Fold) {
			t.Fatalf("rank %d (%s): stats %+v vs %+v", i, w.TermID, g, w)
		}
	}
}

// randomEnrichmentFixture builds a random DAG ontology (with ~10% obsolete
// terms and some annotations to terms the ontology has never heard of), a
// random annotation set, a background, and a selection salted with
// out-of-background gene IDs — every irregularity the kernel must resolve
// exactly like the map walk.
func randomEnrichmentFixture(t *testing.T, rng *rand.Rand, nTerms, nGenes int) (*refEnricher, []string) {
	t.Helper()
	o := ontology.New()
	if err := o.AddTerm(&ontology.Term{ID: "T0000", Name: "root"}); err != nil {
		t.Fatal(err)
	}
	ids := []string{"T0000"}
	for i := 1; i < nTerms; i++ {
		id := fmt.Sprintf("T%04d", i)
		term := &ontology.Term{ID: id, Name: "term " + id, Obsolete: rng.Float64() < 0.1}
		for p := 0; p < 1+rng.Intn(2); p++ {
			term.Parents = append(term.Parents, ids[rng.Intn(len(ids))])
		}
		if err := o.AddTerm(term); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	ann := ontology.NewAnnotations()
	var background []string
	for g := 0; g < nGenes; g++ {
		gene := fmt.Sprintf("G%05d", g)
		background = append(background, gene)
		for a := 0; a < 1+rng.Intn(3); a++ {
			ann.Add(gene, ids[rng.Intn(len(ids))])
		}
		if rng.Float64() < 0.05 {
			// Annotation to a term missing from the ontology: testable,
			// name falls back to the raw ID.
			ann.Add(gene, fmt.Sprintf("UNKNOWN:%d", rng.Intn(4)))
		}
	}
	// Genes annotated but outside the background universe.
	for g := 0; g < nGenes/10; g++ {
		ann.Add(fmt.Sprintf("OUT%04d", g), ids[rng.Intn(len(ids))])
	}
	enr := newRefEnricher(t, o, ann, background)
	// Selection: a random slice of the background plus IDs the universe
	// lacks plus duplicates.
	sel := make([]string, 0, nGenes/4+8)
	for g := 0; g < nGenes/4; g++ {
		sel = append(sel, background[rng.Intn(len(background))])
	}
	for g := 0; g < 8; g++ {
		sel = append(sel, fmt.Sprintf("NOT-IN-UNIVERSE-%d", g))
	}
	return enr, sel
}

// TestKernelMatchesReference is the golden-parity proof for the bitset
// kernel: on random ontologies — obsolete terms, unknown annotation
// targets, out-of-background selection genes, duplicated selections —
// Analyze must return Enrichment slices identical to the oracle's,
// p-values within 1e-12, for every option shape.
func TestKernelMatchesReference(t *testing.T) {
	for _, seed := range []int64{7, 71, 717} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			enr, sel := randomEnrichmentFixture(t, rng, 150, 400)
			for _, opt := range []Options{
				{},
				{MinSelected: 2},
				{MinSelected: 5},
				{MaxPValue: 0.05},
				{MinSelected: 3, MaxPValue: 0.2},
			} {
				got, err := enr.Analyze(sel, opt)
				if err != nil {
					t.Fatalf("kernel %+v: %v", opt, err)
				}
				want, err := enr.ReferenceAnalyze(sel, opt)
				if err != nil {
					t.Fatalf("reference %+v: %v", opt, err)
				}
				if len(want) == 0 {
					t.Fatalf("reference %+v returned nothing — fixture too sparse", opt)
				}
				assertEnrichmentsEqual(t, got, want, 1e-12)
			}
		})
	}
}

// TestKernelMatchesReferenceSharded runs the golden parity at an ontology
// of at least 2*countShardTerms testable terms, where a gene carries many
// term rows in the gene→term list, so a bug in laying that list out cannot
// hide behind the few rows a gene has in the smaller fixtures.
func TestKernelMatchesReferenceSharded(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs GOMAXPROCS >= 2 to exercise the sharded counting path")
	}
	rng := rand.New(rand.NewSource(97))
	enr, sel := randomEnrichmentFixture(t, rng, 1200, 800)
	if enr.NumTerms() < 2*countShardTerms {
		t.Fatalf("fixture has %d testable terms, need >= %d for the sharded path",
			enr.NumTerms(), 2*countShardTerms)
	}
	for _, opt := range []Options{{}, {MinSelected: 2, MaxPValue: 0.3}} {
		got, err := enr.Analyze(sel, opt)
		if err != nil {
			t.Fatalf("kernel %+v: %v", opt, err)
		}
		want, err := enr.ReferenceAnalyze(sel, opt)
		if err != nil {
			t.Fatalf("reference %+v: %v", opt, err)
		}
		if len(want) == 0 {
			t.Fatalf("reference %+v returned nothing — fixture too sparse", opt)
		}
		assertEnrichmentsEqual(t, got, want, 1e-12)
	}
}

// TestKernelMatchesReferenceErrors pins the kernel to the reference's query
// contract.
func TestKernelMatchesReferenceErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	enr, _ := randomEnrichmentFixture(t, rng, 40, 100)
	for _, sel := range [][]string{nil, {}, {"NOPE-1", "NOPE-2"}} {
		if _, err := enr.Analyze(sel, Options{}); err == nil {
			t.Fatalf("kernel accepted selection %v", sel)
		}
		if _, err := enr.ReferenceAnalyze(sel, Options{}); err == nil {
			t.Fatalf("reference accepted selection %v", sel)
		}
	}
}

// TestAnalyzeMinSelectedBoundary: a term with exactly MinSelected selection
// genes is tested; one gene fewer and it is pruned before the corrections —
// in both kernels identically.
func TestAnalyzeMinSelectedBoundary(t *testing.T) {
	o := ontology.New()
	if err := o.AddTerm(&ontology.Term{ID: "GO:R", Name: "root"}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"GO:A", "GO:B"} {
		if err := o.AddTerm(&ontology.Term{ID: id, Name: id, Parents: []string{"GO:R"}}); err != nil {
			t.Fatal(err)
		}
	}
	ann := ontology.NewAnnotations()
	var bg []string
	for i := 0; i < 30; i++ {
		g := fmt.Sprintf("g%02d", i)
		bg = append(bg, g)
		switch {
		case i < 6:
			ann.Add(g, "GO:A") // selection will hold 3 of these
		case i < 12:
			ann.Add(g, "GO:B") // selection will hold 2 of these
		}
	}
	enr := newRefEnricher(t, o, ann, bg)
	sel := []string{"g00", "g01", "g02", "g06", "g07"}
	for _, kernel := range []struct {
		name string
		run  func([]string, Options) ([]Enrichment, error)
	}{
		{"Analyze", enr.Analyze},
		{"ReferenceAnalyze", enr.ReferenceAnalyze},
	} {
		res, err := kernel.run(sel, Options{MinSelected: 3})
		if err != nil {
			t.Fatalf("%s: %v", kernel.name, err)
		}
		found := map[string]bool{}
		for _, r := range res {
			found[r.TermID] = true
			if r.TermID == "GO:A" && r.Selected != 3 {
				t.Fatalf("%s: GO:A k = %d, want 3", kernel.name, r.Selected)
			}
		}
		if !found["GO:A"] {
			t.Fatalf("%s: k == MinSelected must be tested: %v", kernel.name, res)
		}
		if found["GO:B"] {
			t.Fatalf("%s: k == MinSelected-1 must be pruned: %v", kernel.name, res)
		}
	}
}

// TestAnalyzeMaxPValueAfterCorrections: MaxPValue trims the report, not the
// tested family — a surviving term's Bonferroni/FDR must be computed over
// all tested terms, so they match the unfiltered run exactly. Both kernels.
func TestAnalyzeMaxPValueAfterCorrections(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	enr, sel := randomEnrichmentFixture(t, rng, 80, 200)
	for _, kernel := range []struct {
		name string
		run  func([]string, Options) ([]Enrichment, error)
	}{
		{"Analyze", enr.Analyze},
		{"ReferenceAnalyze", enr.ReferenceAnalyze},
	} {
		all, err := kernel.run(sel, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cut, err := kernel.run(sel, Options{MaxPValue: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if len(cut) == 0 || len(cut) >= len(all) {
			t.Fatalf("%s: filter must trim strictly: %d of %d", kernel.name, len(cut), len(all))
		}
		byID := make(map[string]Enrichment, len(all))
		for _, r := range all {
			byID[r.TermID] = r
		}
		for _, r := range cut {
			if r.PValue > 0.5 {
				t.Fatalf("%s: MaxPValue leak: %v", kernel.name, r.PValue)
			}
			w := byID[r.TermID]
			if r.Bonferroni != w.Bonferroni || r.FDR != w.FDR {
				t.Fatalf("%s: %s corrections changed under filtering: %+v vs %+v",
					kernel.name, r.TermID, r, w)
			}
		}
	}
}

// TestAnalyzeTieOrdering: terms with identical 2×2 tables have identical
// p-values and must be reported in ascending TermID order — both kernels.
func TestAnalyzeTieOrdering(t *testing.T) {
	o := ontology.New()
	if err := o.AddTerm(&ontology.Term{ID: "GO:R", Name: "root"}); err != nil {
		t.Fatal(err)
	}
	// Four disjoint terms with identical K; the selection hits each with
	// identical k, so all four p-values tie exactly.
	terms := []string{"GO:D", "GO:B", "GO:C", "GO:A"}
	for _, id := range terms {
		if err := o.AddTerm(&ontology.Term{ID: id, Name: id, Parents: []string{"GO:R"}}); err != nil {
			t.Fatal(err)
		}
	}
	ann := ontology.NewAnnotations()
	var bg []string
	for i := 0; i < 40; i++ {
		g := fmt.Sprintf("g%02d", i)
		bg = append(bg, g)
		if i < 20 {
			ann.Add(g, terms[i%4])
		}
	}
	enr := newRefEnricher(t, o, ann, bg)
	sel := []string{"g00", "g01", "g02", "g03"} // one gene per term
	for _, kernel := range []struct {
		name string
		run  func([]string, Options) ([]Enrichment, error)
	}{
		{"Analyze", enr.Analyze},
		{"ReferenceAnalyze", enr.ReferenceAnalyze},
	} {
		res, err := kernel.run(sel, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var tied []string
		for _, r := range res {
			if r.TermID != "GO:R" {
				tied = append(tied, r.TermID)
				if r.PValue != res[0].PValue && res[0].TermID != "GO:R" {
					t.Fatalf("%s: expected exact tie, got %v vs %v", kernel.name, r.PValue, res[0].PValue)
				}
			}
		}
		want := []string{"GO:A", "GO:B", "GO:C", "GO:D"}
		if len(tied) != len(want) {
			t.Fatalf("%s: tied terms %v", kernel.name, tied)
		}
		for i := range want {
			if tied[i] != want[i] {
				t.Fatalf("%s: tie order %v, want %v", kernel.name, tied, want)
			}
		}
	}
}

// TestAnalyzeCtxCancellation: a dead context stops the scan with ctx.Err()
// — before it starts, and mid-flight under the sharded counting path.
func TestAnalyzeCtxCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	enr, sel := randomEnrichmentFixture(t, rng, 600, 800)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := enr.AnalyzeCtx(ctx, sel, Options{}); err != context.Canceled {
		t.Fatalf("canceled ctx: err = %v", err)
	}
	// A live context behaves exactly like Analyze.
	got, err := enr.AnalyzeCtx(context.Background(), sel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := enr.Analyze(sel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertEnrichmentsEqual(t, got, want, 0)
}

// TestAnalyzeConcurrentHammer drives many concurrent analyses (the sharded
// counting path included — the fixture is large enough to fan out) against
// one Enricher; run with -race it proves the kernel shares nothing mutable,
// and every caller gets bit-identical results.
func TestAnalyzeConcurrentHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	enr, sel := randomEnrichmentFixture(t, rng, 800, 600)
	opts := []Options{{}, {MinSelected: 2}, {MaxPValue: 0.1}}
	want := make([][]Enrichment, len(opts))
	var err error
	for i, opt := range opts {
		if want[i], err = enr.Analyze(sel, opt); err != nil {
			t.Fatal(err)
		}
	}
	workers := 4 * runtime.GOMAXPROCS(0)
	if workers < 8 {
		workers = 8
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 8; iter++ {
				oi := (w + iter) % len(opts)
				got, err := enr.Analyze(sel, opts[oi])
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if len(got) != len(want[oi]) {
					t.Errorf("worker %d: %d results, want %d", w, len(got), len(want[oi]))
					return
				}
				for i := range got {
					if got[i] != want[oi][i] {
						t.Errorf("worker %d: rank %d differs: %+v vs %+v",
							w, i, got[i], want[oi][i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
