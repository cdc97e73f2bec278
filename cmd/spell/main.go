// Command spell runs a SPELL similarity search over a compendium of PCL
// datasets: given query genes, it prints the ranked dataset list and the
// ranked gene list. The Figure-4 web interface is the query daemon's:
// forestviewd -demo serves the SPELL page at /.
//
// Usage:
//
//	spell -files a.pcl,b.pcl,c.pcl -query YAL001C,YBR072W -top 25
//	spell -demo -query-module 3 -top 20
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"forestview/internal/microarray"
	"forestview/internal/spell"
	"forestview/internal/synth"
)

func main() {
	var (
		files       = flag.String("files", "", "comma-separated PCL files forming the compendium")
		demo        = flag.Bool("demo", false, "use a synthetic demo compendium")
		query       = flag.String("query", "", "comma-separated query gene IDs")
		queryModule = flag.Int("query-module", -1, "demo mode: query with genes of this synthetic module")
		top         = flag.Int("top", 25, "number of result genes to print")
		seed        = flag.Int64("seed", 1, "demo generator seed")
	)
	flag.Parse()
	if err := run(*files, *demo, *query, *queryModule, *top, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "spell:", err)
		os.Exit(1)
	}
}

func run(files string, demo bool, query string, queryModule, top int, seed int64) error {
	var datasets []*microarray.Dataset
	var queryIDs []string

	if demo || files == "" {
		u := synth.NewUniverse(1000, 20, seed)
		dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
			NumDatasets: 8, MinExperiments: 10, MaxExperiments: 30,
			ActiveFraction: 0.4, Noise: 0.25, MissingRate: 0.02, Seed: seed + 50,
		})
		datasets = dss
		if queryModule >= 0 {
			ids := u.ModuleGeneIDs(queryModule)
			if len(ids) == 0 {
				return fmt.Errorf("module %d has no genes", queryModule)
			}
			n := 4
			if n > len(ids) {
				n = len(ids)
			}
			queryIDs = ids[:n]
			fmt.Printf("demo query: %d genes of module %d (%s)\n",
				n, queryModule, u.Modules[queryModule].Name)
		}
	} else {
		for _, path := range strings.Split(files, ",") {
			path = strings.TrimSpace(path)
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			ds, err := microarray.ReadPCL(f, path)
			f.Close()
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			datasets = append(datasets, ds)
		}
	}
	if query != "" {
		for _, q := range strings.Split(query, ",") {
			if q = strings.TrimSpace(q); q != "" {
				queryIDs = append(queryIDs, q)
			}
		}
	}

	engine, err := spell.NewEngine(datasets)
	if err != nil {
		return err
	}
	if len(queryIDs) == 0 {
		return fmt.Errorf("no query genes (use -query or -query-module with -demo)")
	}
	fmt.Printf("compendium: %d datasets, %d distinct genes\n", engine.NumDatasets(), engine.NumGenes())
	res, err := engine.Search(queryIDs, spell.Options{MaxGenes: top})
	if err != nil {
		return err
	}

	fmt.Println("\ndatasets by relevance to the query:")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rank\tweight\tcoherence\tquery genes\tdataset")
	for i, d := range res.Datasets {
		fmt.Fprintf(tw, "%d\t%.4f\t%.3f\t%d\t%s\n", i+1, d.Weight, d.QueryCoherence, d.QueryPresent, d.Name)
	}
	tw.Flush()

	fmt.Printf("\ntop %d genes by weighted correlation to the query:\n", len(res.Genes))
	tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rank\tscore\tgene\tname")
	for i, g := range res.Genes {
		fmt.Fprintf(tw, "%d\t%.4f\t%s\t%s\n", i+1, g.Score, g.ID, g.Name)
	}
	return tw.Flush()
}
