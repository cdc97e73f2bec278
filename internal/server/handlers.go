package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"image/color"
	"log"
	"math"
	"net/http"
	"strconv"
	"strings"
	"unicode/utf8"

	"forestview/internal/core"
	"forestview/internal/golem"
	"forestview/internal/render"
	"forestview/internal/shard"
	"forestview/internal/spell"
	"forestview/internal/spellweb"
)

// Stable machine-readable error codes, carried in every /api/* error
// envelope. Clients branch on the code; the message is for humans and may
// change freely. Adding a code is fine, renaming one is a breaking change.
const (
	codeMissingParameter   = "missing_parameter"
	codeBadParameter       = "bad_parameter"
	codeSingleGeneQuery    = "single_gene_query"
	codeNoSelectionGenes   = "no_selection_genes"
	codeUnprocessable      = "unprocessable"
	codeUnknownDataset     = "unknown_dataset"
	codeNoOntology         = "no_ontology"
	codeAllShardsFailed    = "all_shards_failed"
	codeDegradedUnresolved = "degraded_unresolved"
	codeSaturated          = "saturated"
	codeForbidden          = "forbidden"
	codeMethodNotAllowed   = "method_not_allowed"
	codeInternal           = "internal"
	codeEncodeFailed       = "encode_failed"
)

// errorEnvelope is the uniform error body of every /api/* endpoint:
// {"error": {"code": "...", "message": "..."}}.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// encodeJSON is the API's one JSON encoding, trimmed to size so that a
// cached body holds no more than it is charged for.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return bytes.Clone(buf.Bytes()), err
}

// writeJSON encodes v with the right Content-Type; a json.RawMessage is a
// body some compute path encoded (and cached) already, written as it is.
// The body is encoded before the status line is committed: an encode
// failure (a NaN float is the classic) is a 500, not a silent empty 200.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	body, ok := v.(json.RawMessage)
	if !ok {
		var err error
		if body, err = encodeJSON(v); err != nil {
			s.writeEncodeFailure(w, status, err)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeEncodeFailure answers for a result that does not encode: a logged,
// counted 500 with an error body.
func (s *Server) writeEncodeFailure(w http.ResponseWriter, status int, err error) {
	s.encodeFailures.Add(1)
	log.Printf("server: response encode failed (intended status %d): %v", status, err)
	// Marshaling the envelope of string fields cannot fail (unlike Go's
	// %q quoting, whose \x escapes are not valid JSON), so the error
	// body is always parseable.
	body, _ := json.Marshal(errorEnvelope{Error: errorBody{
		Code:    codeEncodeFailed,
		Message: "response encoding failed: " + err.Error(),
	}})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusInternalServerError)
	_, _ = w.Write(body)
}

func (s *Server) writeJSONError(w http.ResponseWriter, status int, code, msg string) {
	s.writeJSON(w, status, errorEnvelope{Error: errorBody{Code: code, Message: msg}})
}

// geneListParam parses the gene list in query parameter name, or answers the
// 400 and reports false. The body echoes the genes it ran, and JSON would
// turn a byte that is not UTF-8 into U+FFFD — an answer for IDs nobody sent.
func (s *Server) geneListParam(w http.ResponseWriter, r *http.Request, name string) ([]string, bool) {
	v := r.URL.Query().Get(name)
	ids := spellweb.ParseQuery(v)
	switch {
	case len(ids) == 0:
		s.writeJSONError(w, http.StatusBadRequest, codeMissingParameter, "missing "+name+" parameter (comma separated gene IDs)")
	case !utf8.ValidString(v):
		s.writeJSONError(w, http.StatusBadRequest, codeBadParameter, name+" must be valid UTF-8")
	default:
		return ids, true
	}
	return nil, false
}

// handleSearch serves /api/search?q=GENE1,GENE2[&top=N]: the SPELL ranked
// dataset and gene lists as JSON.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	ids, ok := s.geneListParam(w, r, "q")
	if !ok {
		return
	}
	top := 0
	if t := r.URL.Query().Get("top"); t != "" {
		v, err := strconv.Atoi(t)
		if err != nil || v < 1 {
			s.writeJSONError(w, http.StatusBadRequest, codeBadParameter, "top must be a positive integer")
			return
		}
		top = v
	}
	if len(spell.CanonicalQuery(ids)) < 2 {
		// A one-gene query has no query pairs, so every dataset's coherence
		// is NaN — unencodable and meaningless. Reject up front rather than
		// serve a weightless ranking.
		s.writeJSONError(w, http.StatusUnprocessableEntity, codeSingleGeneQuery, spell.MsgSingleGeneQuery)
		return
	}
	a, disp, err := s.searchWith(r.Context(), &s.statSearch, ids, spell.Options{MaxGenes: top, IncludeQuery: true})
	if err != nil {
		s.writeComputeError(w, &s.statSearch, err)
		return
	}
	s.writeAnswer(w, a, disp)
}

// scatterSearchResponse is the /api/search body: the ranking plus the
// degraded flag and shard/group tallies.
type scatterSearchResponse struct {
	*spell.Result
	shard.Meta
}

// writeAnswer writes a cached or fresh answer's body, with its cache
// disposition and its coverage: every answer — a single daemon's is a fleet
// of one — says how much of the compendium it covers; a degraded merge is a
// correct ranking (or analysis) over the surviving shards, flagged rather
// than failed.
func (s *Server) writeAnswer(w http.ResponseWriter, a answer, disp string) {
	w.Header().Set(cacheHeader, disp)
	w.Header().Set("X-Forestview-Shards-Ok", strconv.Itoa(a.meta.ShardsOK))
	w.Header().Set("X-Forestview-Shards-Total", strconv.Itoa(a.meta.ShardsTotal))
	w.Header().Set("X-Forestview-Degraded", strconv.FormatBool(a.meta.Degraded))
	s.writeJSON(w, http.StatusOK, json.RawMessage(a.body))
}

// writeContextError is the daemon's one cancellation rule, applied by every
// compute endpoint: it reports whether err was a context error, and if so
// writes a 499 ("client closed request"), which keeps the abort visible as
// an error in /api/stats. A flight outlives all its waiters but the last,
// so the error is always the request's own: nobody is reading a body.
func writeContextError(w http.ResponseWriter, err error) bool {
	if !isContextErr(err) {
		return false
	}
	w.WriteHeader(statusClientClosedRequest)
	return true
}

// statusClientClosedRequest is nginx's non-standard 499 "client closed
// request"; net/http never sends it to anyone (the client is gone) but the
// per-endpoint error accounting sees it.
const statusClientClosedRequest = 499

// enrichResponse is the /api/enrich body.
type enrichResponse struct {
	// Selection is the canonicalized gene list actually tested — requested
	// genes outside the background are dropped, mirroring what Analyze
	// tests, and reported in Ignored.
	Selection []string `json:"selection"`
	// Ignored lists requested genes absent from the background.
	Ignored []string `json:"ignored,omitempty"`
	// Background is N, the universe size.
	Background int `json:"background"`
	// Results are ordered by ascending p-value.
	Results []golem.Enrichment `json:"results"`
	// Meta is the scatter's coverage: the degraded flag and the shard and
	// group tallies.
	shard.Meta
}

// handleEnrich serves /api/enrich?genes=G1,G2[&maxp=0.05][&min=2]: the
// GOLEM enrichment table for a gene list as JSON, scattered over the
// members' background slices and merged exactly (golem.MergeCounts); the
// body also carries the degraded flag and shard/group tallies, mirroring
// /api/search. Members without an ontology make it a 503 no_ontology.
func (s *Server) handleEnrich(w http.ResponseWriter, r *http.Request) {
	genes, ok := s.geneListParam(w, r, "genes")
	if !ok {
		return
	}
	opt := golem.Options{MinSelected: 1}
	if v := r.URL.Query().Get("maxp"); v != "" {
		p, err := strconv.ParseFloat(v, 64)
		if err != nil || !(p >= 0 && p <= 1) { // NaN parses, and is neither < 0 nor > 1
			s.writeJSONError(w, http.StatusBadRequest, codeBadParameter, "maxp must be in [0, 1]")
			return
		}
		opt.MaxPValue = p + 0 // -0 parses too, and would key its own cache entry
	}
	if v := r.URL.Query().Get("min"); v != "" {
		m, err := strconv.Atoi(v)
		if err != nil || m < 1 {
			s.writeJSONError(w, http.StatusBadRequest, codeBadParameter, "min must be a positive integer")
			return
		}
		opt.MinSelected = m
	}
	a, disp, err := s.scatterEnrich(r.Context(), spell.CanonicalQuery(genes), opt)
	if err != nil {
		s.writeComputeError(w, &s.statEnrich, err)
		return
	}
	s.writeAnswer(w, a, disp)
}

// newEnrichResponse is the body for the canonical selection sel; which of
// its genes the universe holds comes from the partials' disclosure.
func newEnrichResponse(sel []string, res *shard.EnrichResult, meta shard.Meta) enrichResponse {
	resp := enrichResponse{Background: res.Background, Results: res.Results, Meta: meta}
	for _, g := range sel {
		if res.InBackground[g] {
			resp.Selection = append(resp.Selection, g)
		} else {
			resp.Ignored = append(resp.Ignored, g)
		}
	}
	return resp
}

// writeComputeError maps a search or enrichment failure onto the error
// envelope: retryable conditions are 503s with a condition-specific code,
// counted in ep.rejected; anything else is a query error (422).
func (s *Server) writeComputeError(w http.ResponseWriter, ep *endpointStats, err error) {
	reject := func(code string) {
		ep.rejected.Add(1)
		s.writeJSONError(w, http.StatusServiceUnavailable, code, err.Error())
	}
	switch {
	case writeContextError(w, err):
	case errors.Is(err, shard.ErrNoEnrichment):
		// No member has an ontology: a daemon booted without one, or a fleet
		// of such shards.
		reject(codeNoOntology)
	case errors.Is(err, shard.ErrDegradedUnresolved):
		// A degraded scatter whose survivors can't rule the genes in or out.
		// Retryable, so 503 — a query error it is not.
		reject(codeDegradedUnresolved)
	case errors.Is(err, shard.ErrAllShardsFailed):
		// Full outage across the shard set; equally retryable.
		reject(codeAllShardsFailed)
	case errors.Is(err, golem.ErrNoSelection):
		s.writeJSONError(w, http.StatusUnprocessableEntity, codeNoSelectionGenes, err.Error())
	case errors.As(err, new(*json.UnsupportedValueError)):
		// The body is encoded as part of the computation.
		s.writeEncodeFailure(w, http.StatusOK, err)
	default:
		s.writeJSONError(w, http.StatusUnprocessableEntity, codeUnprocessable, err.Error())
	}
}

// tileParams are the canonicalized /api/heatmap parameters; their string
// form is the cache key (a pane never changes, so its index names its data
// for the daemon's lifetime). level is the resolved pyramid level
// (auto-selection happens before the key is formed, so an auto request and
// its explicit-level twin share a cache entry).
type tileParams struct {
	dsIndex  int
	from, to int // display-order row range [from, to)
	w, h     int
	treeW    int // gene dendrogram strip width, 0 = no tree
	atreeH   int // array (column) dendrogram strip height, 0 = no strip
	level    int // pyramid level: rows aggregate in runs of 2^level
	cmap     render.ColorMap
	limit    float64
}

func (p tileParams) key() string {
	return fmt.Sprintf("tile\x1f%d\x1f%d\x1f%d\x1f%d\x1f%d\x1f%d\x1f%d\x1f%d\x1f%d\x1f%g",
		p.dsIndex, p.from, p.to, p.w, p.h, p.treeW, p.atreeH, p.level, p.cmap, p.limit)
}

// autoLevel picks the coarsest pyramid level that still gives every pixel
// row at least one slab row: the largest k < levels with span/2^k >= h.
// A zoomed-in request (span < h) stays at level 0.
func autoLevel(span, h, levels int) int {
	lvl := 0
	for lvl+1 < levels && span>>(uint(lvl)+1) >= h {
		lvl++
	}
	return lvl
}

// handleHeatmap serves /api/heatmap?dataset=REF[&rows=FROM:TO][&w=][&h=]
// [&cmap=][&limit=][&tree=W][&atree=H][&level=K|auto]: a PNG heatmap tile
// of the clustered dataset, rows in dendrogram display order, optionally
// with a W-pixel gene dendrogram strip on the left and an H-pixel array
// (column) dendrogram strip on top. Zoomed-out tiles serve from the pane's
// tile pyramid: level K collapses runs of 2^K display rows into
// precomputed mean-aggregate slab rows; level defaults to auto-selection
// from the row span vs the pixel height (X-Forestview-Level discloses it).
// Every parameter validates off the pane's row count before the tree cache
// is asked for the tree — a cold pane clusters exactly once however many
// tiles ask. Tiles render on the bounded worker pool; a saturated pool sheds
// the request with 503. Every served tile feeds the speculative prefetcher
// (when enabled), which renders its pan/zoom neighbours in the background.
func (s *Server) handleHeatmap(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	ref := q.Get("dataset")
	if ref == "" {
		s.writeJSONError(w, http.StatusBadRequest, codeMissingParameter, "missing dataset parameter (index or name); see /api/stats for the loaded compendium")
		return
	}
	dsIndex, ok := s.lookupDataset(ref)
	if !ok {
		s.writeJSONError(w, http.StatusNotFound, codeUnknownDataset, fmt.Sprintf("unknown dataset %q (%d loaded)", ref, s.NumPanes()))
		return
	}
	// Parameter validation runs before the (possibly expensive) tree
	// lookup, off the pane's row count alone.
	nRows := s.trees.panes[dsIndex].rows
	p := tileParams{dsIndex: dsIndex, from: 0, to: nRows, w: 512, h: 512, cmap: render.GreenBlackRed, limit: 2}

	if v := q.Get("rows"); v != "" {
		from, to, ok := parseRowRange(v)
		if !ok {
			s.writeJSONError(w, http.StatusBadRequest, codeBadParameter, "rows must be FROM:TO with 0 <= FROM < TO")
			return
		}
		if to > nRows {
			to = nRows
		}
		if from >= nRows {
			s.writeJSONError(w, http.StatusBadRequest, codeBadParameter, fmt.Sprintf("rows out of range: dataset has %d rows", nRows))
			return
		}
		p.from, p.to = from, to
	}
	for _, dim := range []struct {
		name string
		dst  *int
	}{{"w", &p.w}, {"h", &p.h}} {
		if v := q.Get(dim.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 || n > s.cfg.MaxTileDim {
				s.writeJSONError(w, http.StatusBadRequest, codeBadParameter,
					fmt.Sprintf("%s must be in [1, %d]", dim.name, s.cfg.MaxTileDim))
				return
			}
			*dim.dst = n
		}
	}
	if v := q.Get("cmap"); v != "" {
		cm, ok := parseColorMap(v)
		if !ok {
			s.writeJSONError(w, http.StatusBadRequest, codeBadParameter, "cmap must be one of green-black-red, blue-black-yellow, grayscale")
			return
		}
		p.cmap = cm
	}
	if v := q.Get("limit"); v != "" {
		lim, err := strconv.ParseFloat(v, 64)
		if err != nil || !(lim > 0) || math.IsInf(lim, 1) { // NaN parses, and is not <= 0
			s.writeJSONError(w, http.StatusBadRequest, codeBadParameter, "limit must be a positive number")
			return
		}
		p.limit = lim
	}
	if v := q.Get("tree"); v != "" {
		tw, err := strconv.Atoi(v)
		if err != nil || tw < 0 || tw >= p.w {
			s.writeJSONError(w, http.StatusBadRequest, codeBadParameter, "tree must be a dendrogram width in [0, w)")
			return
		}
		if tw > 0 && (p.from != 0 || p.to != nRows) {
			s.writeJSONError(w, http.StatusBadRequest, codeBadParameter, "tree requires the full row range (the dendrogram spans every row)")
			return
		}
		p.treeW = tw
	}
	if v := q.Get("atree"); v != "" {
		ah, err := strconv.Atoi(v)
		if err != nil || ah < 0 || ah >= p.h {
			s.writeJSONError(w, http.StatusBadRequest, codeBadParameter, "atree must be a dendrogram height in [0, h)")
			return
		}
		p.atreeH = ah
	}
	// level validates off the pane's row count alone, like everything above.
	levels := core.NumPyramidLevels(nRows)
	if v := q.Get("level"); v != "" && v != "auto" {
		lvl, err := strconv.Atoi(v)
		if err != nil || lvl < 0 || lvl >= levels {
			s.writeJSONError(w, http.StatusBadRequest, codeBadParameter,
				fmt.Sprintf("level must be \"auto\" or an integer in [0, %d] for this dataset", levels-1))
			return
		}
		p.level = lvl
	} else {
		p.level = autoLevel(p.to-p.from, p.h, levels)
	}

	cd, err := s.trees.get(r.Context(), dsIndex)
	if err != nil {
		if !writeContextError(w, err) {
			s.writeJSONError(w, http.StatusInternalServerError, codeInternal, err.Error())
		}
		return
	}
	if p.treeW > 0 && cd.GeneTree == nil {
		s.writeJSONError(w, http.StatusUnprocessableEntity, codeUnprocessable, "dataset has no gene tree to draw")
		return
	}
	if p.atreeH > 0 && cd.ArrayTree == nil {
		s.writeJSONError(w, http.StatusUnprocessableEntity, codeUnprocessable,
			"dataset has no array tree to draw (cluster it with ClusterArrays, or start the daemon with -cluster-arrays)")
		return
	}

	png, disp, err := s.renderTile(r.Context(), cd, p)
	switch {
	case errors.Is(err, ErrSaturated):
		s.statHeatmap.rejected.Add(1)
		s.writeJSONError(w, http.StatusServiceUnavailable, codeSaturated, "render pool saturated, retry later")
		return
	case writeContextError(w, err):
		return
	case err != nil:
		s.writeJSONError(w, http.StatusInternalServerError, codeInternal, err.Error())
		return
	}
	if s.prefetch != nil {
		// A cache hit on a tile speculation rendered (and no foreground
		// request has touched since) is disclosed as "prefetched".
		if disp == dispHit && s.prefetch.claim(p.key()) {
			disp = dispPrefetched
		}
		// Every served tile predicts the next viewport motion.
		s.prefetch.speculate(p, nRows, levels)
	}
	w.Header().Set(cacheHeader, disp)
	w.Header().Set("X-Forestview-Level", strconv.Itoa(p.level))
	w.Header().Set("Content-Type", "image/png")
	w.Header().Set("Content-Length", strconv.Itoa(len(png)))
	_, _ = w.Write(png)
}

// renderTile produces the PNG bytes for p, cached and coalesced like every
// other result; only the rasterization waits for a render slot, so cache
// hits bypass the pool. The flight waits under its own context: a tile
// whose every client hangs up before it took a slot never renders.
func (s *Server) renderTile(ctx context.Context, cd *core.ClusteredDataset, p tileParams) ([]byte, string, error) {
	return cachedCompute(ctx, s, &s.statHeatmap, p.key(), wireCost, nil, func(ctx context.Context) ([]byte, error) {
		res, err := s.pool.Run(ctx, func() (any, error) { return s.rasterizeTile(cd, p) })
		png, _ := res.([]byte)
		return png, err
	})
}

// wireCost is the cache cost of an entry held in its wire form — a PNG
// tile or an enrichment's JSON body: the exact byte length plus entry
// overhead.
func wireCost(b []byte) int64 { return int64(len(b)) + 64 }

// rasterizeTile draws one tile: optional array-tree strip on top, optional
// gene-tree strip on the left, and the expression matrix — from the raw
// display rows at level 0 (the pre-pyramid path, byte-for-byte), or from
// the pane's precomputed pyramid slab at level >= 1. Strips and matrix are
// runs that go straight to PNG; no tile has a framebuffer.
func (s *Server) rasterizeTile(cd *core.ClusteredDataset, p tileParams) ([]byte, error) {
	var rows [][]float64
	if p.level == 0 {
		rows = cd.RowsInDisplayRange(p.from, p.to)
	} else {
		slab := cd.Pyramid(core.PyramidOptions{}).Level(p.level)
		lo := p.from >> uint(p.level)
		hi := (p.to + 1<<uint(p.level) - 1) >> uint(p.level)
		rows = slab.F64[lo:hi]
	}
	opt := render.HeatmapOptions{ColorMap: p.cmap, Limit: p.limit, CellBorder: true}
	if p.atreeH > 0 {
		opt.ColOrder = cd.ArrayOrder // the columns under their brackets
	}
	fg := color.RGBA{R: 180, G: 180, B: 180, A: 255}
	return render.HeatmapPNG(p.w, p.h, color.RGBA{A: 255}, rows, opt,
		render.Dendrogram{Tree: cd.ArrayTree, Orientation: render.AboveColumns, Size: p.atreeH, Color: fg},
		render.Dendrogram{Tree: cd.GeneTree, Orientation: render.LeftOfRows, Size: p.treeW, Color: fg})
}

// parseRowRange parses a strict "FROM:TO" display-row range; unlike
// Sscanf it rejects trailing garbage.
func parseRowRange(v string) (from, to int, ok bool) {
	lo, hi, found := strings.Cut(v, ":")
	if !found {
		return 0, 0, false
	}
	from, err1 := strconv.Atoi(lo)
	to, err2 := strconv.Atoi(hi)
	if err1 != nil || err2 != nil || from < 0 || to <= from {
		return 0, 0, false
	}
	return from, to, true
}

// parseColorMap accepts the canonical names plus short aliases.
func parseColorMap(v string) (render.ColorMap, bool) {
	switch v {
	case "green-black-red", "green", "rg":
		return render.GreenBlackRed, true
	case "blue-black-yellow", "blue-yellow", "blue":
		return render.BlueYellow, true
	case "grayscale", "gray", "grey":
		return render.Grayscale, true
	}
	return 0, false
}

// handleStats serves /api/stats.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Stats())
}
