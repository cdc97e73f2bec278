package main

import (
	"bytes"
	"fmt"

	"forestview/internal/microarray"
	"forestview/internal/ontology"
	"forestview/internal/synth"
)

// fixtureSpec sizes a fixture; the tests shrink it to a 200-gene universe.
type fixtureSpec struct {
	genes, modules, datasets, minExp, maxExp, panes, leaves int
	seed                                                    int64
}

var paperScale = fixtureSpec{
	genes: fixtureGenes, modules: fixtureModules, datasets: fixtureDatasets,
	minExp: fixtureMinExp, maxExp: fixtureMaxExp, panes: fixturePanes,
	leaves: fixtureLeaves, seed: fixtureSeed,
}

// fixture is everything a topology is set up from, generated before any
// clock starts: the compendium as PCL bytes (what a daemon finds on disk)
// and the synthetic ontology with its gene annotations.
type fixture struct {
	spec    fixtureSpec
	names   []string // dataset names, compendium order
	pcl     [][]byte // one PCL file per dataset
	geneIDs []string
	// modules lists each co-regulation module's gene IDs; queries and
	// selections are drawn inside one module, the way a biologist asks
	// about one process.
	modules [][]string
	onto    *ontology.Ontology
	ann     *ontology.Annotations
}

func newFixture(spec fixtureSpec) (*fixture, error) {
	u := synth.NewUniverse(spec.genes, spec.modules, spec.seed)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: spec.datasets, MinExperiments: spec.minExp, MaxExperiments: spec.maxExp,
		ActiveFraction: 0.4, Noise: 0.25, MissingRate: fixtureMissing, Seed: spec.seed + 50,
	})
	fx := &fixture{spec: spec, geneIDs: u.GeneIDs()}
	for _, ds := range dss {
		var buf bytes.Buffer
		if err := microarray.WritePCL(&buf, ds); err != nil {
			return nil, fmt.Errorf("writing %q as PCL: %w", ds.Name, err)
		}
		fx.names = append(fx.names, ds.Name)
		fx.pcl = append(fx.pcl, buf.Bytes())
	}
	for m := range u.Modules {
		fx.modules = append(fx.modules, u.ModuleGeneIDs(m))
	}

	// A GO-like DAG with spec.leaves leaf terms (~1.3x that many terms in
	// all). Each module owns a contiguous block of leaves and spreads its
	// genes over them, so a coexpressed gene list enriches for a handful
	// of related terms and their ancestors, as real selections do.
	leaves := make([]string, spec.leaves)
	for i := range leaves {
		leaves[i] = fmt.Sprintf("process %d", i)
	}
	onto, leafOf, err := ontology.Synthetic(ontology.SyntheticSpec{
		LeafNames: leaves, IntermediateLevels: 3, Seed: spec.seed + 3,
	})
	if err != nil {
		return nil, fmt.Errorf("synthetic ontology: %w", err)
	}
	fx.onto, fx.ann = onto, ontology.NewAnnotations()
	block := max(1, spec.leaves/len(u.Modules))
	for m, mod := range u.Modules {
		for k, g := range mod.Genes {
			leaf := (m*block + k%block) % spec.leaves
			fx.ann.Add(u.Genes[g].ID, leafOf[leaves[leaf]])
		}
	}
	return fx, nil
}

// parse reads datasets idx of the compendium from their PCL bytes, as a
// daemon's -files loop does.
func (fx *fixture) parse(idx []int) ([]*microarray.Dataset, error) {
	out := make([]*microarray.Dataset, 0, len(idx))
	for _, i := range idx {
		ds, err := microarray.ReadPCL(bytes.NewReader(fx.pcl[i]), fx.names[i])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fx.names[i], err)
		}
		out = append(out, ds)
	}
	return out, nil
}

func (fx *fixture) allIndexes() []int {
	idx := make([]int, len(fx.pcl))
	for i := range idx {
		idx[i] = i
	}
	return idx
}
