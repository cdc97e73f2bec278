package golem

import (
	"fmt"
	"math/rand"
	"testing"

	"forestview/internal/ontology"
)

// FuzzPartialTallies holds the selection-side counts to a recount from the
// annotation map: over a random ontology, annotation set, background (with
// repeated genes) and selection (with repeated and unknown genes), every
// slice of every partition into at most 16 slices must carry, for every
// term, the number of its background genes and of its selection genes at
// positions in the slice, the slice's N and n, and the full-universe
// InBackground disclosure.
func FuzzPartialTallies(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(40), uint8(10))
	f.Add(int64(2), uint8(1), uint8(1), uint8(1))
	f.Add(int64(3), uint8(60), uint8(200), uint8(80))
	f.Add(int64(4), uint8(30), uint8(129), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nTerms, nGenes, nSel uint8) {
		rng := rand.New(rand.NewSource(seed))
		o, ann, background := randomAnnotations(t, rng, 1+int(nTerms), 1+int(nGenes))
		selection := make([]string, 0, int(nSel)+2)
		for range int(nSel) {
			selection = append(selection, background[rng.Intn(len(background))])
		}
		selection = append(selection, "NOT-A-GENE", "")
		enr, err := NewEnricher(o, ann, background)
		if err != nil {
			t.Fatal(err)
		}

		// The recount: each background gene's position is its first
		// occurrence, each term's genes come from the propagated map.
		pos := map[string]int{}
		for _, g := range background {
			if _, ok := pos[g]; !ok {
				pos[g] = len(pos)
			}
		}
		selected := map[string]bool{}
		for _, g := range selection {
			selected[g] = true
		}
		perTerm := ann.Propagate(o).GenesPerTerm()
		cat := enr.Catalog()
		words := (len(pos) + 63) / 64
		for slices := 1; slices <= 16; slices++ {
			for slice := range slices {
				lo := min(64*(slice*words/slices), len(pos))
				hi := min(64*((slice+1)*words/slices), len(pos))
				in := func(g string) bool { p, ok := pos[g]; return ok && p >= lo && p < hi }
				p, err := enr.PartialAnalyze(selection, slice, slices)
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for g := range selected {
					if in(g) {
						n++
					}
				}
				if p.BackgroundSize != hi-lo || p.SelectionSize != n {
					t.Fatalf("slice %d/%d: N, n = %d, %d, recount %d, %d", slice, slices, p.BackgroundSize, p.SelectionSize, hi-lo, n)
				}
				for i, g := range selection {
					if _, ok := pos[g]; p.InBackground[i] != ok {
						t.Fatalf("slice %d/%d: InBackground[%d] (%q) = %t", slice, slices, i, g, p.InBackground[i])
					}
				}
				for row, term := range cat.Terms {
					k, K := 0, 0
					for g := range perTerm[term.ID] {
						if in(g) {
							K++
							if selected[g] {
								k++
							}
						}
					}
					if int(p.Selected[row]) != k || int(p.Background[row]) != K {
						t.Fatalf("slice %d/%d, term %s: k, K = %d, %d, recount %d, %d",
							slice, slices, term.ID, p.Selected[row], p.Background[row], k, K)
					}
				}
			}
		}
	})
}

// randomAnnotations builds a random DAG of nTerms terms, about a tenth of
// them obsolete, a background of nGenes entries drawn with repeats, and
// annotations of background genes, of genes outside it and to terms the
// ontology lacks.
func randomAnnotations(t *testing.T, rng *rand.Rand, nTerms, nGenes int) (*ontology.Ontology, *ontology.Annotations, []string) {
	t.Helper()
	o := ontology.New()
	ids := make([]string, 0, nTerms)
	for i := range nTerms {
		term := &ontology.Term{ID: fmt.Sprintf("T%03d", i), Name: "term", Obsolete: i > 0 && rng.Intn(10) == 0}
		for p := 0; i > 0 && p < 1+rng.Intn(2); p++ {
			term.Parents = append(term.Parents, ids[rng.Intn(len(ids))])
		}
		if err := o.AddTerm(term); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, term.ID)
	}
	ann := ontology.NewAnnotations()
	background := make([]string, nGenes)
	for i := range background {
		background[i] = fmt.Sprintf("G%03d", rng.Intn(nGenes+nGenes/4+1))
		for range rng.Intn(4) {
			ann.Add(background[i], ids[rng.Intn(len(ids))])
		}
		if rng.Intn(20) == 0 {
			ann.Add(background[i], "UNKNOWN")
		}
	}
	ann.Add("OUTSIDE", ids[rng.Intn(len(ids))])
	return o, ann, background
}
