// Command golem performs GO enrichment analysis of a gene list and renders
// the local exploration map of the significant terms — the text-and-PNG
// equivalent of the Figure-5 GOLEM window.
//
// Usage:
//
//	golem -obo ontology.obo -assoc associations.tsv -genes list.txt -map map.png
//	golem -demo -map map.png
package main

import (
	"flag"
	"fmt"
	"image/color"
	"os"
	"text/tabwriter"
	"time"

	"forestview/internal/golem"
	"forestview/internal/microarray"
	"forestview/internal/ontology"
	"forestview/internal/render"
	"forestview/internal/synth"
)

func main() {
	var (
		oboPath   = flag.String("obo", "", "OBO ontology file")
		assocPath = flag.String("assoc", "", "gene association file (gene<TAB>term)")
		genesPath = flag.String("genes", "", "file with one selected gene ID per line")
		demo      = flag.Bool("demo", false, "run on synthetic demo data")
		maxP      = flag.Float64("maxp", 0.05, "p-value cutoff for the report")
		mapOut    = flag.String("map", "", "render the local exploration map PNG here")
		mapDepth  = flag.Int("map-depth", 1, "descendant depth of the local map")
		mapTerms  = flag.Int("map-terms", 5, "number of top terms to focus the map on")
		seed      = flag.Int64("seed", 1, "demo seed")
	)
	flag.Parse()
	if err := run(*oboPath, *assocPath, *genesPath, *demo, *maxP, *mapOut, *mapDepth, *mapTerms, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "golem:", err)
		os.Exit(1)
	}
}

func run(oboPath, assocPath, genesPath string, demo bool, maxP float64, mapOut string, mapDepth, mapTerms int, seed int64) error {
	var (
		onto      *ontology.Ontology
		ann       *ontology.Annotations
		selection []string
		universe  []string
	)
	if demo || oboPath == "" {
		u := synth.NewUniverse(1500, 20, seed)
		var names []string
		for _, m := range u.Modules {
			names = append(names, m.Name)
		}
		var leafOf map[string]string
		var err error
		onto, leafOf, err = ontology.Synthetic(ontology.SyntheticSpec{LeafNames: names, Seed: seed + 3})
		if err != nil {
			return err
		}
		ann = ontology.AnnotateFromModules(u.Annotations(), leafOf)
		universe = u.GeneIDs()
		// Demo selection: the ESR-induced module plus noise genes.
		selection = append(selection, u.ModuleGeneIDs(u.ESRInduced)...)
		selection = append(selection, universe[:20]...)
		fmt.Printf("demo: selecting %d genes (ESR module + 20 random)\n", len(selection))
	} else {
		f, err := os.Open(oboPath)
		if err != nil {
			return err
		}
		onto, err = ontology.ReadOBO(f)
		f.Close()
		if err != nil {
			return err
		}
		af, err := os.Open(assocPath)
		if err != nil {
			return err
		}
		ann, err = ontology.ReadAssociations(af)
		af.Close()
		if err != nil {
			return err
		}
		universe = ann.Genes()
		gf, err := os.Open(genesPath)
		if err != nil {
			return err
		}
		selection, err = microarray.ReadGeneList(gf)
		gf.Close()
		if err != nil {
			return err
		}
	}

	enr, err := golem.NewEnricher(onto, ann, universe)
	if err != nil {
		return err
	}
	t0 := time.Now()
	results, err := enr.Analyze(selection, golem.Options{MaxPValue: maxP})
	if err != nil {
		return err
	}
	elapsed := time.Since(t0)
	fmt.Printf("ontology: %d terms; background: %d genes; selection: %d genes\n",
		onto.Len(), enr.BackgroundSize(), len(selection))
	fmt.Printf("%d terms enriched at p <= %g (%v)\n\n", len(results), maxP, elapsed.Round(time.Microsecond))

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "term\tname\tk/n\tK/N\tfold\tp\tbonferroni\tFDR")
	for _, r := range results {
		fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%d/%d\t%.1f\t%.2e\t%.2e\t%.2e\n",
			r.TermID, r.TermName, r.Selected, r.SelectionSize,
			r.Background, r.BackgroundSize, r.Fold, r.PValue, r.Bonferroni, r.FDR)
	}
	tw.Flush()

	if mapOut != "" && len(results) > 0 {
		focus := golem.TopTerms(results, mapTerms)
		g := golem.LocalMap(onto, focus, mapDepth)
		lay := golem.LayoutGraph(g, 4)
		byID := make(map[string]golem.Enrichment, len(results))
		for _, r := range results {
			byID[r.TermID] = r
		}
		c := render.NewCanvas(1200, 120*lay.LayerCount+40, color.RGBA{A: 255})
		render.RenderGOGraph(c, render.Rect{X: 10, Y: 10, W: 1180, H: 120*lay.LayerCount + 20}, g, lay,
			render.GOGraphOptions{
				Label: func(id string) string {
					if t := onto.Term(id); t != nil {
						return t.Name
					}
					return id
				},
				NodeColor: func(id string) color.Color {
					r, ok := byID[id]
					if !ok {
						return nil
					}
					// Redder = more significant, scaled by -log10 p.
					v := golem.MinusLog10P(r.PValue)
					if v > 20 {
						v = 20
					}
					return color.RGBA{R: uint8(55 + v*10), G: 40, B: 60, A: 255}
				},
			})
		if err := c.SavePNG(mapOut); err != nil {
			return err
		}
		fmt.Printf("\nlocal exploration map (%d terms, %d layers) -> %s\n",
			len(g.Nodes), lay.LayerCount, mapOut)
	}
	return nil
}
