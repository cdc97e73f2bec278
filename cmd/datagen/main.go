// Command datagen generates a synthetic genomic data workspace: a
// compendium of PCL expression datasets over a shared synthetic genome, the
// matching clustered CDT/GTR files, a synthetic gene ontology (OBO) and
// gene associations — everything the other tools consume. It substitutes
// for the published yeast compendia the paper analyzes, which cannot ship
// with an offline reproduction.
//
// Usage:
//
//	datagen -out ./data -genes 2000 -modules 25 -datasets 6 -seed 1
//	datagen -out ./data -casestudy           # the Section-4 trio
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"forestview/internal/cluster"
	"forestview/internal/core"
	"forestview/internal/microarray"
	"forestview/internal/ontology"
	"forestview/internal/synth"
)

func main() {
	var (
		outDir    = flag.String("out", "data", "output directory")
		nGenes    = flag.Int("genes", 2000, "genes in the synthetic genome")
		nModules  = flag.Int("modules", 25, "co-regulation modules")
		nDatasets = flag.Int("datasets", 6, "datasets in the compendium")
		seed      = flag.Int64("seed", 1, "random seed")
		caseStudy = flag.Bool("casestudy", false, "generate the Section-4 stress case-study collection instead of a generic compendium")
		doCluster = flag.Bool("cluster", true, "also hierarchically cluster each dataset and write CDT/GTR files")
		noise     = flag.Float64("noise", 0.25, "measurement noise (log2 sd)")
		missing   = flag.Float64("missing", 0.02, "missing-value rate")
	)
	flag.Parse()

	if err := run(*outDir, *nGenes, *nModules, *nDatasets, *seed, *caseStudy, *doCluster, *noise, *missing); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(outDir string, nGenes, nModules, nDatasets int, seed int64, caseStudy, doCluster bool, noise, missing float64) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	u := synth.NewUniverse(nGenes, nModules, seed)
	fmt.Printf("universe: %d genes in %d modules (seed %d)\n", len(u.Genes), len(u.Modules), seed)

	var datasets []*microarray.Dataset
	if caseStudy {
		datasets = synth.StressCaseCollection(u, seed+100)
	} else {
		dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
			NumDatasets: nDatasets, MinExperiments: 10, MaxExperiments: 40,
			ActiveFraction: 0.5, Noise: noise, MissingRate: missing, Seed: seed + 100,
		})
		datasets = dss
	}

	for _, ds := range datasets {
		base := sanitize(ds.Name)
		if err := writePCL(filepath.Join(outDir, base+".pcl"), ds); err != nil {
			return err
		}
		fmt.Printf("wrote %s.pcl (%d genes x %d experiments)\n", base, ds.NumGenes(), ds.NumExperiments())
		if !doCluster {
			continue
		}
		cd, err := core.Cluster(ds, core.ClusterOptions{
			Metric: cluster.PearsonDist, Linkage: cluster.AverageLinkage, ClusterArrays: true,
		})
		if err != nil {
			return err
		}
		if err := writeClustered(outDir, base, cd); err != nil {
			return err
		}
		fmt.Printf("wrote %s.cdt/.gtr/.atr\n", base)
	}

	// Ontology + associations from ground truth.
	onto, ann, err := u.Ontology(seed + 7)
	if err != nil {
		return err
	}
	of, err := os.Create(filepath.Join(outDir, "ontology.obo"))
	if err != nil {
		return err
	}
	if err := ontology.WriteOBO(of, onto); err != nil {
		of.Close()
		return err
	}
	if err := of.Close(); err != nil {
		return err
	}
	af, err := os.Create(filepath.Join(outDir, "associations.tsv"))
	if err != nil {
		return err
	}
	if err := ontology.WriteAssociations(af, ann); err != nil {
		af.Close()
		return err
	}
	if err := af.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote ontology.obo (%d terms) and associations.tsv (%d genes)\n", onto.Len(), ann.Len())
	return nil
}

func writePCL(path string, ds *microarray.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := microarray.WritePCL(f, ds); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeClustered(dir, base string, cd *core.ClusteredDataset) error {
	// CDT rows in display order with GID/AID links, plus GTR/ATR trees.
	ordered := cd.Data.Subset(cd.Data.Name, cd.DisplayOrder)
	gids := make([]string, ordered.NumGenes())
	for pos, row := range cd.DisplayOrder {
		gids[pos] = microarray.GeneLeafID(row)
	}
	var aids []string
	if cd.ArrayTree != nil {
		aids = make([]string, cd.Data.NumExperiments())
		for j := range aids {
			aids[j] = microarray.ArrayLeafID(j)
		}
	}
	f, err := os.Create(filepath.Join(dir, base+".cdt"))
	if err != nil {
		return err
	}
	if err := microarray.WriteCDT(f, &microarray.CDT{Dataset: ordered, GIDs: gids, AIDs: aids}); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	gf, err := os.Create(filepath.Join(dir, base+".gtr"))
	if err != nil {
		return err
	}
	if err := cluster.WriteTree(gf, cd.GeneTree, cluster.GeneTree); err != nil {
		gf.Close()
		return err
	}
	if err := gf.Close(); err != nil {
		return err
	}
	if cd.ArrayTree != nil {
		af, err := os.Create(filepath.Join(dir, base+".atr"))
		if err != nil {
			return err
		}
		if err := cluster.WriteTree(af, cd.ArrayTree, cluster.ArrayTree); err != nil {
			af.Close()
			return err
		}
		if err := af.Close(); err != nil {
			return err
		}
	}
	return nil
}

func sanitize(name string) string {
	r := strings.NewReplacer(" ", "_", "(", "", ")", "", "/", "-", ":", "")
	return r.Replace(name)
}
