package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image/color"
	"image/png"
	"math"
	"time"

	"forestview/internal/cluster"
	"forestview/internal/core"
	"forestview/internal/golem"
	"forestview/internal/microarray"
	"forestview/internal/render"
	"forestview/internal/spell"
)

// reference is the benchmark's own copy of the data and of every layer
// object built over it, never shared with a topology under test: plan-time
// top hits, answer verification and the traced pass's kernel re-executions
// all run here, so they neither touch nor trust the daemon's caches.
type reference struct {
	dss      []*microarray.Dataset
	engine   *spell.Engine
	enricher *golem.Enricher
	// panes[i] is pane i clustered the way the daemon clusters it (nil
	// until clusterPanes asks for it); clusterS the seconds each took.
	panes    []*core.ClusteredDataset
	clusterS []float64
}

func newReference(fx *fixture) (*reference, error) {
	dss, err := fx.parse(fx.allIndexes())
	if err != nil {
		return nil, err
	}
	ref := &reference{dss: dss, panes: make([]*core.ClusteredDataset, fx.spec.panes)}
	if ref.engine, err = spell.NewEngine(dss); err != nil {
		return nil, err
	}
	if ref.enricher, err = golem.NewEnricher(fx.onto, fx.ann, fx.geneIDs); err != nil {
		return nil, err
	}
	return ref, nil
}

func (ref *reference) paneRows() []int {
	rows := make([]int, len(ref.panes))
	for i := range rows {
		rows[i] = ref.dss[i].NumGenes()
	}
	return rows
}

// clusterPanes clusters panes [0, n) one at a time.
func (ref *reference) clusterPanes(n int) error {
	for i := 0; i < n; i++ {
		if ref.panes[i] != nil {
			continue
		}
		t := time.Now()
		cd, err := core.Cluster(ref.dss[i], core.ClusterOptions{Metric: cluster.PearsonDist, Linkage: cluster.AverageLinkage})
		if err != nil {
			return err
		}
		ref.clusterS = append(ref.clusterS, time.Since(t).Seconds())
		ref.panes[i] = cd
	}
	return nil
}

// searchOptions are the options /api/search runs a query with.
var searchOptions = spell.Options{MaxGenes: searchTop, IncludeQuery: true}

func (ref *reference) topGenes(query []string) ([]string, error) {
	res, err := ref.engine.Search(query, searchOptions)
	if err != nil {
		return nil, err
	}
	return res.TopGeneIDs(enrichGenes), nil
}

// tileLevel is the pyramid level level=auto resolves to: the coarsest one
// that still gives every pixel row a slab row. The daemon discloses its
// choice in X-Forestview-Level; the verifier compares the two.
func tileLevel(span, rows int) int {
	lvl := 0
	for lvl+1 < core.NumPyramidLevels(rows) && span>>uint(lvl+1) >= tilePx {
		lvl++
	}
	return lvl
}

// tileSlab returns the slab rows a tile of o renders from.
func (ref *reference) tileSlab(o *op, level int) [][]float64 {
	cd := ref.panes[o.pane]
	if level == 0 {
		return cd.RowsInDisplayRange(o.from, o.to)
	}
	lo := o.from >> uint(level)
	hi := (o.to + 1<<uint(level) - 1) >> uint(level)
	return cd.Pyramid(core.PyramidOptions{}).Level(level).F64[lo:hi]
}

// drawTile rasterizes slab rows the way /api/heatmap's defaults do.
func drawTile(rows [][]float64) *render.Canvas {
	c := render.NewCanvas(tilePx, tilePx, color.RGBA{A: 255})
	render.RenderHeatmap(c, render.Rect{W: tilePx, H: tilePx}, rows,
		render.HeatmapOptions{ColorMap: render.GreenBlackRed, Limit: 2, CellBorder: true})
	return c
}

// verify checks every sample that kept its body against a direct library
// call on the reference and marks disagreements as wrong. On the fleet the
// reference is still the single-process engine: whole-stack agreement.
func (ref *reference) verify(ops []op, samples []sample) {
	for i := range samples {
		s := &samples[i]
		if s.body == nil || !s.ok() {
			continue
		}
		var err error
		switch o := &ops[i]; o.kind {
		case opSearch:
			err = ref.verifySearch(o, s.body)
		case opEnrich:
			err = ref.verifyEnrich(o, s.body)
		case opTile:
			err = ref.verifyTile(o, s)
		}
		if err != nil {
			s.wrong = err.Error()
		}
		s.body = nil
	}
}

// rankTolerance lets two entries swap ranks only when their scores tie:
// Search breaks exact ties by compendium order, the fleet's Merge by gene
// ID, the one documented difference between the two.
const rankTolerance = 1e-9

func (ref *reference) verifySearch(o *op, body []byte) error {
	var got struct {
		Datasets []struct{ Name string }
		Genes    []struct{ ID string }
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("search body: %w", err)
	}
	want, err := ref.engine.Search(o.genes, searchOptions)
	if err != nil {
		return err
	}
	if len(got.Genes) != len(want.Genes) || len(got.Datasets) != len(want.Datasets) {
		return fmt.Errorf("search %v: %d genes / %d datasets, want %d / %d",
			o.genes, len(got.Genes), len(got.Datasets), len(want.Genes), len(want.Datasets))
	}
	score := make(map[string]float64, len(want.Genes))
	for _, g := range want.Genes {
		score[g.ID] = g.Score
	}
	for i, g := range got.Genes {
		if sc, ok := score[g.ID]; !ok || math.Abs(sc-want.Genes[i].Score) > rankTolerance {
			return fmt.Errorf("search %v: gene rank %d is %s, want %s", o.genes, i, g.ID, want.Genes[i].ID)
		}
	}
	weight := make(map[string]float64, len(want.Datasets))
	for _, d := range want.Datasets {
		weight[d.Name] = d.Weight
	}
	for i, d := range got.Datasets {
		if wt, ok := weight[d.Name]; !ok || math.Abs(wt-want.Datasets[i].Weight) > rankTolerance {
			return fmt.Errorf("search %v: dataset rank %d is %q, want %q", o.genes, i, d.Name, want.Datasets[i].Name)
		}
	}
	return nil
}

func (ref *reference) verifyEnrich(o *op, body []byte) error {
	var got struct {
		Results []golem.Enrichment `json:"results"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("enrich body: %w", err)
	}
	want, err := ref.enricher.Analyze(o.genes, golem.Options{MinSelected: 1})
	if err != nil {
		return err
	}
	if len(got.Results) != len(want) {
		return fmt.Errorf("enrich: %d terms, want %d", len(got.Results), len(want))
	}
	for i := range want {
		if got.Results[i].TermID != want[i].TermID || math.Abs(got.Results[i].PValue-want[i].PValue) > 1e-12 {
			return fmt.Errorf("enrich: rank %d is %s p=%g, want %s p=%g",
				i, got.Results[i].TermID, got.Results[i].PValue, want[i].TermID, want[i].PValue)
		}
	}
	return nil
}

// verifyTile checks that the tile is a PNG of the requested size at the
// level auto-selection should pick, and, for a level-0 tile of a pane the
// reference has clustered, that it is byte-identical to RenderHeatmap +
// EncodePNG over RowsInDisplayRange.
func (ref *reference) verifyTile(o *op, s *sample) error {
	cfg, err := png.DecodeConfig(bytes.NewReader(s.body))
	if err != nil {
		return fmt.Errorf("tile %s: %w", o.path, err)
	}
	if cfg.Width != tilePx || cfg.Height != tilePx {
		return fmt.Errorf("tile %s: %dx%d", o.path, cfg.Width, cfg.Height)
	}
	if want := tileLevel(o.to-o.from, ref.dss[o.pane].NumGenes()); s.level != want {
		return fmt.Errorf("tile %s: level %d, want %d", o.path, s.level, want)
	}
	if s.level != 0 || ref.panes[o.pane] == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := drawTile(ref.tileSlab(o, 0)).EncodePNG(&buf); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), s.body) {
		return fmt.Errorf("tile %s: differs from RenderHeatmap+EncodePNG over RowsInDisplayRange", o.path)
	}
	return nil
}

// probeTile fetches one level-0 tile of pane 0 and requires it to be
// byte-identical to the library render: the sampled responses alone might
// not contain a level-0 tile of a clustered reference pane.
func (ref *reference) probeTile(hc *httpClient) error {
	rows := ref.dss[0].NumGenes()
	span := min(rows, tilePx)
	o := tileOp(0, (rows-span)/2, (rows-span)/2+span)
	var s sample
	hc.get(0, o.path, true, &s)
	if !s.ok() {
		return fmt.Errorf("probe tile %s: status %d %s", o.path, s.status, s.err)
	}
	return ref.verifyTile(&o, &s)
}
