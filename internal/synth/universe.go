// Package synth generates synthetic genomic datasets with planted,
// controllable structure. It substitutes for the proprietary/published
// yeast compendia the paper analyzes (Gasch 2000 environmental stress,
// Saldanha 2004 nutrient limitation, Hughes 2000 knockout compendium):
// the real data cannot ship with an offline reproduction, so we generate
// matrices with the same shape — co-regulated gene modules, a global
// Environmental Stress Response (ESR) signature that cuts across studies,
// per-study condition designs, realistic noise and missingness — and the
// experiments verify the *relationships* the paper reports rather than the
// absolute values of any real dataset.
package synth

import (
	"fmt"
	"math/rand"

	"forestview/internal/ontology"
)

// GeneInfo describes one synthetic gene: a yeast-style systematic ID, a
// common name, a free-text description used by annotation search, the
// module it belongs to, and its loading (response strength) on the module
// signal.
type GeneInfo struct {
	ID      string
	Name    string
	Desc    string
	Module  int
	Loading float64
}

// Module is a co-regulated gene group, the synthetic stand-in for a
// biological process. Special modules model the ESR.
type Module struct {
	Name  string
	Genes []int // indices into Universe.Genes
}

// Universe is a synthetic genome: the gene catalogue and its partition into
// co-regulation modules. All datasets generated from the same universe
// share gene identities, so cross-dataset analysis (the paper's core
// concern) is meaningful.
type Universe struct {
	Genes   []GeneInfo
	Modules []Module

	// Indices of the two ESR modules within Modules.
	ESRInduced   int
	ESRRepressed int
}

// Module name stems used to label synthetic processes; descriptions embed
// these so annotation search ("find genes by name") has realistic text to
// match.
var processNames = []string{
	"ribosome biogenesis", "heat shock response", "oxidative stress defense",
	"glycolysis", "amino acid biosynthesis", "cell cycle G1/S", "cell cycle G2/M",
	"DNA replication", "DNA repair", "mitochondrial respiration",
	"protein folding", "proteasome degradation", "vacuolar transport",
	"lipid metabolism", "nitrogen catabolism", "sulfur assimilation",
	"phosphate signaling", "iron homeostasis", "cell wall organization",
	"mating pheromone response", "sporulation", "autophagy",
	"trehalose metabolism", "glycogen storage", "ergosterol biosynthesis",
	"tRNA processing", "rRNA processing", "mRNA splicing", "nuclear export",
	"chromatin remodeling", "histone modification", "telomere maintenance",
	"ubiquitin conjugation", "peroxisome biogenesis", "secretory pathway",
}

// NewUniverse creates a synthetic genome of nGenes genes partitioned into
// nModules co-regulation modules (two of which are the ESR-induced and
// ESR-repressed signatures). Module sizes follow a skewed distribution like
// real functional categories. The same seed always yields the same
// universe.
func NewUniverse(nGenes, nModules int, seed int64) *Universe {
	if nModules < 3 {
		nModules = 3
	}
	if nGenes < nModules {
		nGenes = nModules
	}
	rng := rand.New(rand.NewSource(seed))
	u := &Universe{}

	// Name the modules: the two ESR signatures first, then processes.
	u.ESRInduced = 0
	u.ESRRepressed = 1
	u.Modules = make([]Module, nModules)
	u.Modules[0] = Module{Name: "environmental stress response induced"}
	u.Modules[1] = Module{Name: "environmental stress response repressed"}
	for i := 2; i < nModules; i++ {
		base := processNames[(i-2)%len(processNames)]
		if (i-2)/len(processNames) > 0 {
			base = fmt.Sprintf("%s %d", base, (i-2)/len(processNames)+1)
		}
		u.Modules[i] = Module{Name: base}
	}

	// Skewed module-size weights: a few large signatures, many small ones.
	// The ESR modules get boosted weight to mirror the ~900-gene yeast ESR.
	weights := make([]float64, nModules)
	total := 0.0
	for i := range weights {
		w := 1.0 / float64(i+1)
		if i == u.ESRInduced || i == u.ESRRepressed {
			w = 1.5
		}
		weights[i] = w
		total += w
	}

	u.Genes = make([]GeneInfo, nGenes)
	for g := 0; g < nGenes; g++ {
		// Sample a module by weight; guarantee every module at least one
		// gene by assigning the first nModules genes round-robin.
		var m int
		if g < nModules {
			m = g
		} else {
			target := rng.Float64() * total
			acc := 0.0
			m = nModules - 1
			for i, w := range weights {
				acc += w
				if acc >= target {
					m = i
					break
				}
			}
		}
		u.Genes[g] = GeneInfo{
			ID:      systematicName(g),
			Name:    commonName(u.Modules[m].Name, len(u.Modules[m].Genes)),
			Desc:    u.Modules[m].Name,
			Module:  m,
			Loading: 0.6 + 0.8*rng.Float64(),
		}
		u.Modules[m].Genes = append(u.Modules[m].Genes, g)
	}
	return u
}

// systematicName formats a yeast-style systematic ORF name, e.g. YAL001C:
// chromosome letter, arm, position, Crick/Watson strand. The encoding is a
// bijection of the gene index (strand, then position 1-999, then arm, then
// chromosome), so IDs are unique up to 2×999×2×16 = 63,936 genes — beyond
// the 50,000-gene upper bound the paper cites. Past that a numeric suffix
// keeps uniqueness.
func systematicName(g int) string {
	strand := "C"
	if g%2 == 1 {
		strand = "W"
	}
	idx := g / 2
	pos := idx%999 + 1
	idx /= 999
	arm := "L"
	if idx%2 == 1 {
		arm = "R"
	}
	idx /= 2
	chrom := rune('A' + idx%16)
	idx /= 16
	if idx > 0 {
		return fmt.Sprintf("Y%c%s%03d%s-%d", chrom, arm, pos, strand, idx)
	}
	return fmt.Sprintf("Y%c%s%03d%s", chrom, arm, pos, strand)
}

// commonName derives a gene-symbol-like name from the module name, e.g.
// "heat shock response" gene 3 -> "HSR4".
func commonName(moduleName string, ordinal int) string {
	letters := make([]rune, 0, 3)
	for _, w := range splitWords(moduleName) {
		if len(letters) == 3 {
			break
		}
		letters = append(letters, upper(rune(w[0])))
	}
	for len(letters) < 3 {
		letters = append(letters, 'X')
	}
	return fmt.Sprintf("%s%d", string(letters), ordinal+1)
}

func splitWords(s string) []string {
	var out []string
	start := -1
	for i, r := range s {
		if r == ' ' || r == '/' {
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
			continue
		}
		if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		out = append(out, s[start:])
	}
	return out
}

func upper(r rune) rune {
	if r >= 'a' && r <= 'z' {
		return r - 'a' + 'A'
	}
	return r
}

// GeneIDs returns the systematic IDs of all genes, in genome order.
func (u *Universe) GeneIDs() []string {
	ids := make([]string, len(u.Genes))
	for i, g := range u.Genes {
		ids[i] = g.ID
	}
	return ids
}

// ModuleGeneIDs returns the systematic IDs of the genes in module m.
func (u *Universe) ModuleGeneIDs(m int) []string {
	if m < 0 || m >= len(u.Modules) {
		return nil
	}
	ids := make([]string, len(u.Modules[m].Genes))
	for i, g := range u.Modules[m].Genes {
		ids[i] = u.Genes[g].ID
	}
	return ids
}

// ModuleOf returns the module index of a gene ID, or -1 when unknown.
func (u *Universe) ModuleOf(id string) int {
	for _, g := range u.Genes {
		if g.ID == id {
			return g.Module
		}
	}
	return -1
}

// Annotations returns gene-ID -> module-name assignments, the ground truth
// consumed by the synthetic GO builder and the enrichment experiments.
func (u *Universe) Annotations() map[string][]string {
	out := make(map[string][]string, len(u.Genes))
	for _, g := range u.Genes {
		out[g.ID] = []string{u.Modules[g.Module].Name}
	}
	return out
}

// Ontology is the synthetic GO over u: ontology.Synthetic with one leaf term
// per module, drawn from seed, and every gene annotated to its module's leaf.
// The same universe and seed give the same terms and annotations.
func (u *Universe) Ontology(seed int64) (*ontology.Ontology, *ontology.Annotations, error) {
	names := make([]string, len(u.Modules))
	for i, m := range u.Modules {
		names[i] = m.Name
	}
	onto, leafOf, err := ontology.Synthetic(ontology.SyntheticSpec{LeafNames: names, Seed: seed})
	if err != nil {
		return nil, nil, fmt.Errorf("synthetic ontology: %w", err)
	}
	return onto, ontology.AnnotateFromModules(u.Annotations(), leafOf), nil
}
