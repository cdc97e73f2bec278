package core

import (
	"fmt"

	"forestview/internal/golem"
	"forestview/internal/microarray"
	"forestview/internal/spell"
)

// This file is the Figure-1 "Dataset Analysis" layer: the hooks through
// which SPELL and GOLEM results flow back into the visualization ("the most
// adaptive method is to provide selection information from an analysis
// application").

// SpellEngine builds a SPELL search engine over the loaded datasets.
func (fv *ForestView) SpellEngine() (*spell.Engine, error) {
	var raw []*microarray.Dataset
	for _, p := range fv.panes {
		raw = append(raw, p.DS.Data)
	}
	return spell.NewEngine(raw)
}

// SpellSearchResult couples the raw SPELL output with what ForestView did
// with it.
type SpellSearchResult struct {
	Result *spell.Result
	// SelectedGenes is the top-n gene list installed as the selection.
	SelectedGenes []string
}

// ApplySpellSearch runs a SPELL query over the loaded datasets, reorders
// the panes by dataset relevance, and selects the top n result genes
// (query genes included, so they highlight too) — the integration Section 3
// describes: "The datasets returned can be displayed in decreasing order of
// relevance to the query, and the top n genes can be selected and
// highlighted within each dataset."
func (fv *ForestView) ApplySpellSearch(engine *spell.Engine, query []string, topN int) (*SpellSearchResult, error) {
	if engine == nil {
		var err error
		engine, err = fv.SpellEngine()
		if err != nil {
			return nil, err
		}
	}
	res, err := engine.Search(query, spell.Options{IncludeQuery: true})
	if err != nil {
		return nil, err
	}
	weights := make(map[string]float64, len(res.Datasets))
	for _, d := range res.Datasets {
		weights[d.Name] = d.Weight
	}
	fv.OrderPanesBy(weights)
	if topN <= 0 {
		topN = 20
	}
	top := res.TopGeneIDs(topN)
	fv.SelectList(top, fmt.Sprintf("SPELL search (%d query genes)", len(query)))
	return &SpellSearchResult{Result: res, SelectedGenes: top}, nil
}

// EnrichSelection runs GOLEM enrichment on the current selection against
// the provided enricher (built from whatever ontology/annotations the
// deployment uses) and returns results sorted by p-value.
func (fv *ForestView) EnrichSelection(enr *golem.Enricher, opt golem.Options) ([]golem.Enrichment, error) {
	fv.mu.RLock()
	sel := fv.selection
	fv.mu.RUnlock()
	if sel == nil || len(sel.IDs) == 0 {
		return nil, fmt.Errorf("core: nothing selected")
	}
	return enr.Analyze(sel.IDs, opt)
}
