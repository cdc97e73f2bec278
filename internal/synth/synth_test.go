package synth

import (
	"math"
	"strings"
	"testing"

	"forestview/internal/stats"
)

func TestNewUniverseBasics(t *testing.T) {
	u := NewUniverse(500, 20, 1)
	if len(u.Genes) != 500 {
		t.Fatalf("genes = %d", len(u.Genes))
	}
	if len(u.Modules) != 20 {
		t.Fatalf("modules = %d", len(u.Modules))
	}
	// Every module has at least one gene.
	for i, m := range u.Modules {
		if len(m.Genes) == 0 {
			t.Fatalf("module %d (%s) is empty", i, m.Name)
		}
	}
	// Gene IDs unique.
	seen := make(map[string]bool)
	for _, g := range u.Genes {
		if seen[g.ID] {
			t.Fatalf("duplicate gene ID %s", g.ID)
		}
		seen[g.ID] = true
	}
}

func TestUniverseDeterministic(t *testing.T) {
	a := NewUniverse(200, 10, 42)
	b := NewUniverse(200, 10, 42)
	for i := range a.Genes {
		if a.Genes[i] != b.Genes[i] {
			t.Fatalf("gene %d differs between same-seed universes", i)
		}
	}
	c := NewUniverse(200, 10, 43)
	same := true
	for i := range a.Genes {
		if a.Genes[i] != c.Genes[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical universes")
	}
}

func TestSystematicNameFormat(t *testing.T) {
	u := NewUniverse(100, 5, 1)
	for _, g := range u.Genes {
		id := g.ID
		if len(id) != 7 || id[0] != 'Y' {
			t.Fatalf("bad systematic name %q", id)
		}
		if id[2] != 'L' && id[2] != 'R' {
			t.Fatalf("bad arm in %q", id)
		}
		last := id[len(id)-1]
		if last != 'C' && last != 'W' {
			t.Fatalf("bad strand in %q", id)
		}
	}
}

func TestGeneIDsUniqueAtScale(t *testing.T) {
	// The paper cites datasets of 6,000-50,000 genes; IDs must stay unique
	// well past the small test sizes.
	u := NewUniverse(6000, 30, 2)
	seen := make(map[string]bool, 6000)
	for _, g := range u.Genes {
		if seen[g.ID] {
			t.Fatalf("duplicate gene ID %s at genome scale", g.ID)
		}
		seen[g.ID] = true
	}
}

func TestUniverseDegenerateArgs(t *testing.T) {
	u := NewUniverse(1, 1, 1)
	if len(u.Modules) < 3 {
		t.Fatal("module floor should be 3 (two ESR + one process)")
	}
	if len(u.Genes) < len(u.Modules) {
		t.Fatal("genes must cover modules")
	}
}

func TestModuleGeneIDs(t *testing.T) {
	u := NewUniverse(300, 12, 3)
	ids := u.ModuleGeneIDs(u.ESRInduced)
	if len(ids) == 0 {
		t.Fatal("ESR-induced module empty")
	}
	moduleOf := geneModules(u)
	for _, id := range ids {
		if moduleOf[id] != u.ESRInduced {
			t.Fatalf("gene %s not mapped back to ESR-induced", id)
		}
	}
	if u.ModuleGeneIDs(-1) != nil || u.ModuleGeneIDs(99) != nil {
		t.Fatal("out-of-range module should return nil")
	}
}

// geneModules maps each gene ID of the universe to its module index.
func geneModules(u *Universe) map[string]int {
	m := make(map[string]int, len(u.Genes))
	for _, g := range u.Genes {
		m[g.ID] = g.Module
	}
	return m
}

func TestAnnotations(t *testing.T) {
	u := NewUniverse(100, 8, 5)
	ann := u.Annotations()
	if len(ann) != 100 {
		t.Fatalf("annotations = %d", len(ann))
	}
	moduleOf := geneModules(u)
	for id, terms := range ann {
		if len(terms) != 1 {
			t.Fatalf("gene %s has %d terms", id, len(terms))
		}
		m := moduleOf[id]
		if terms[0] != u.Modules[m].Name {
			t.Fatalf("gene %s annotated %q, module is %q", id, terms[0], u.Modules[m].Name)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	u := NewUniverse(200, 10, 7)
	ds := u.Generate(DatasetSpec{
		Name: "test", Kind: StressStudy, NumExperiments: 20,
		ESRStrength: 1, Noise: 0.2, MissingRate: 0.1, Seed: 9,
	})
	if ds.NumGenes() != 200 || ds.NumExperiments() != 20 {
		t.Fatalf("dims = %dx%d", ds.NumGenes(), ds.NumExperiments())
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	mf := ds.MissingFraction()
	if mf < 0.05 || mf > 0.2 {
		t.Fatalf("missing fraction = %v, want ~0.1", mf)
	}
	// Experiment names carry the stress idiom.
	if !strings.Contains(ds.Experiments[0], "min") {
		t.Fatalf("stress experiment name = %q", ds.Experiments[0])
	}
}

func TestGenerateDeterministic(t *testing.T) {
	u := NewUniverse(50, 6, 2)
	spec := DatasetSpec{Name: "d", NumExperiments: 8, Seed: 4}
	a := u.Generate(spec)
	b := u.Generate(spec)
	for g := 0; g < a.NumGenes(); g++ {
		for e := 0; e < a.NumExperiments(); e++ {
			av, bv := a.Value(g, e), b.Value(g, e)
			if math.IsNaN(av) != math.IsNaN(bv) {
				t.Fatal("missingness differs between same-seed datasets")
			}
			if !math.IsNaN(av) && av != bv {
				t.Fatal("values differ between same-seed datasets")
			}
		}
	}
}

func TestModuleCoherence(t *testing.T) {
	// Genes in the same active module must be much more correlated than
	// genes in different modules.
	u := NewUniverse(400, 10, 11)
	ds := u.Generate(DatasetSpec{
		Name: "coh", Kind: GenericStudy, NumExperiments: 30,
		Noise: 0.25, Seed: 13,
	})
	// Pick the largest non-ESR module.
	best, size := -1, 0
	for i, m := range u.Modules {
		if i == u.ESRInduced || i == u.ESRRepressed {
			continue
		}
		if len(m.Genes) > size {
			best, size = i, len(m.Genes)
		}
	}
	if size < 4 {
		t.Skip("largest module too small for the coherence check")
	}
	var within [][]float64
	for _, g := range u.Modules[best].Genes[:4] {
		within = append(within, ds.Row(g))
	}
	wc := stats.MeanPairwiseCorrelation(within)
	// Cross-module pairs: first gene from 4 different modules.
	var across [][]float64
	for i, m := range u.Modules {
		if i == u.ESRInduced || i == u.ESRRepressed || len(m.Genes) == 0 {
			continue
		}
		across = append(across, ds.Row(m.Genes[0]))
		if len(across) == 4 {
			break
		}
	}
	ac := stats.MeanPairwiseCorrelation(across)
	if !(wc > 0.5) {
		t.Fatalf("within-module correlation = %v, want > 0.5", wc)
	}
	if !(wc > ac+0.3) {
		t.Fatalf("within (%v) should exceed across (%v) by a wide margin", wc, ac)
	}
}

func TestESRSignature(t *testing.T) {
	u := NewUniverse(400, 10, 17)
	stress := u.Generate(DatasetSpec{
		Name: "stress", Kind: StressStudy, NumExperiments: 30,
		ESRStrength: 1, Noise: 0.25, Seed: 19,
	})
	// Induced and repressed ESR genes must anti-correlate.
	gi := u.Modules[u.ESRInduced].Genes[0]
	gr := u.Modules[u.ESRRepressed].Genes[0]
	r := stats.Pearson(stress.Row(gi), stress.Row(gr))
	if !(r < -0.5) {
		t.Fatalf("induced/repressed ESR correlation = %v, want strongly negative", r)
	}
	// With ESRStrength 0 the signature disappears.
	quiet := u.Generate(DatasetSpec{
		Name: "quiet", Kind: StressStudy, NumExperiments: 30,
		ESRStrength: 0, Noise: 0.25, Seed: 23,
	})
	rq := stats.Pearson(quiet.Row(gi), quiet.Row(gr))
	if math.Abs(rq) > 0.6 {
		t.Fatalf("ESR off but correlation = %v", rq)
	}
}

func TestESRCutsAcrossStudies(t *testing.T) {
	// The heart of the Section-4 case study: ESR genes correlate with each
	// other in stress AND nutrient AND knockout data.
	u := NewUniverse(400, 10, 29)
	col := StressCaseCollection(u, 100)
	esr := u.Modules[u.ESRInduced].Genes
	if len(esr) < 3 {
		t.Skip("ESR module too small")
	}
	for _, ds := range col {
		var rows [][]float64
		for _, g := range esr[:3] {
			rows = append(rows, ds.Row(g))
		}
		mc := stats.MeanPairwiseCorrelation(rows)
		if !(mc > 0.4) {
			t.Fatalf("ESR coherence in %q = %v, want > 0.4", ds.Name, mc)
		}
	}
}

func TestInactiveModulesAreNoise(t *testing.T) {
	u := NewUniverse(300, 10, 31)
	// Activate only module 2.
	ds := u.Generate(DatasetSpec{
		Name: "narrow", Kind: GenericStudy, NumExperiments: 25,
		ActiveModules: []int{2}, Noise: 0.25, Seed: 37,
	})
	// Another module's genes should be uncorrelated.
	var m int
	for i := range u.Modules {
		if i != 2 && i != u.ESRInduced && i != u.ESRRepressed && len(u.Modules[i].Genes) >= 3 {
			m = i
			break
		}
	}
	var rows [][]float64
	for _, g := range u.Modules[m].Genes[:3] {
		rows = append(rows, ds.Row(g))
	}
	mc := stats.MeanPairwiseCorrelation(rows)
	if math.Abs(mc) > 0.45 {
		t.Fatalf("inactive module coherence = %v, want ~0", mc)
	}
}

func TestGenerateCompendium(t *testing.T) {
	u := NewUniverse(200, 12, 41)
	dss, active := u.GenerateCompendium(CompendiumSpec{
		NumDatasets: 6, MinExperiments: 8, MaxExperiments: 16,
		ActiveFraction: 0.4, Noise: 0.25, MissingRate: 0.02, Seed: 43,
	})
	if len(dss) != 6 || len(active) != 6 {
		t.Fatalf("compendium size = %d/%d", len(dss), len(active))
	}
	for i, ds := range dss {
		if ds.NumGenes() != 200 {
			t.Fatalf("dataset %d genes = %d", i, ds.NumGenes())
		}
		if ds.NumExperiments() < 8 || ds.NumExperiments() > 16 {
			t.Fatalf("dataset %d experiments = %d", i, ds.NumExperiments())
		}
		if err := ds.Validate(); err != nil {
			t.Fatalf("dataset %d: %v", i, err)
		}
		nMod := 12
		wantActive := int(float64(nMod) * 0.4)
		if len(active[i]) != wantActive {
			t.Fatalf("dataset %d active modules = %d, want %d", i, len(active[i]), wantActive)
		}
	}
}

func TestCompendiumDefaults(t *testing.T) {
	u := NewUniverse(50, 5, 47)
	dss, _ := u.GenerateCompendium(CompendiumSpec{Seed: 48})
	if len(dss) != 5 {
		t.Fatalf("default compendium size = %d, want 5", len(dss))
	}
}

func TestStressCaseCollection(t *testing.T) {
	u := NewUniverse(200, 8, 53)
	col := StressCaseCollection(u, 200)
	if len(col) != 4 {
		t.Fatalf("collection size = %d", len(col))
	}
	wantNames := []string{"stress time-courses A", "stress time-courses B",
		"nutrient limitation", "knockout compendium"}
	for i, ds := range col {
		if ds.Name != wantNames[i] {
			t.Fatalf("dataset %d name = %q, want %q", i, ds.Name, wantNames[i])
		}
	}
}

func TestStudyKindString(t *testing.T) {
	for k, want := range map[StudyKind]string{
		GenericStudy: "generic", StressStudy: "stress",
		NutrientStudy: "nutrient-limitation", KnockoutStudy: "knockout-compendium",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
	}
}
