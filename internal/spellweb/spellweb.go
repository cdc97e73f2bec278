// Package spellweb provides the web front-end to the SPELL search engine —
// the reproduction of the Figure-4 artifact ("Currently SPELL runs on a
// pre-defined collection of microarray data through a web interface"): an
// HTML search page over a fixed compendium. The query daemon
// (internal/server) mounts it beside its JSON API, so humans and ForestView
// integrations query one engine through one cache.
package spellweb

import (
	"context"
	"fmt"
	"html"
	"io"
	"net/http"
	"strings"

	"forestview/internal/spell"
)

// Searcher is the engine-shaped dependency of the page: the query
// daemon's cached, coalesced search path. SearchCtx receives the page
// request's context — so an abandoned browser tab cancels the search,
// which on a sharded daemon stops a whole scatter — and may return a
// service notice the page must disclose alongside the result (e.g. that a
// ranking is degraded because a shard was unreachable). An empty notice
// means nothing to disclose.
type Searcher interface {
	SearchCtx(ctx context.Context, ids []string, opt spell.Options) (res *spell.Result, notice string, err error)
	NumDatasets() int
	NumGenes() int
}

// maxGenes caps result length per query.
const maxGenes = 50

// page renders the SPELL page over a Searcher.
type page struct {
	engine Searcher
}

// RegisterHTML mounts the human-facing routes ("/" and "/search"),
// searching through engine, on mux.
func RegisterHTML(mux *http.ServeMux, engine Searcher) {
	p := &page{engine: engine}
	mux.HandleFunc("/", p.handleIndex)
	mux.HandleFunc("/search", p.handleSearch)
}

// pageHTML returns the page for d. Every string value goes through
// html.EscapeString, which is enough for both places a value lands: element
// text and the double-quoted value attribute. The page is written, not
// templated: text/template looks fields up through
// reflect.Value.MethodByName, and a binary that links that keeps every
// exported method of every type it converts to an interface.
func pageHTML(d pageData) string {
	esc := html.EscapeString
	var b strings.Builder
	fmt.Fprintf(&b, `<!DOCTYPE html>
<html><head><title>SPELL search</title></head>
<body>
<h1>SPELL: Serial Patterns of Expression Levels Locator</h1>
<p>%d datasets, %d genes in the compendium.</p>
<form action="/search" method="get">
  <input type="text" name="q" size="60" value="%s"
         placeholder="query genes, comma separated (e.g. YAL001C, YBR072W)">
  <input type="submit" value="Search">
</form>
`, d.NumDatasets, d.NumGenes, esc(d.Query))
	if d.Error != "" {
		fmt.Fprintf(&b, "<p style=\"color:red\">%s</p>\n", esc(d.Error))
	}
	if d.Notice != "" {
		fmt.Fprintf(&b, "<p style=\"color:darkorange\"><b>notice:</b> %s</p>\n", esc(d.Notice))
	}
	if d.Result != nil {
		b.WriteString(`<h2>Datasets by relevance</h2>
<table border="1" cellpadding="3">
<tr><th>rank</th><th>weight</th><th>query coherence</th><th>query genes present</th><th>dataset</th></tr>
`)
		for i, ds := range d.Result.Datasets {
			fmt.Fprintf(&b, "<tr><td>%d</td><td>%.4f</td><td>%.3f</td><td>%d</td><td>%s</td></tr>\n",
				i+1, ds.Weight, ds.QueryCoherence, ds.QueryPresent, esc(ds.Name))
		}
		b.WriteString(`</table>
<h2>Genes by weighted correlation</h2>
<table border="1" cellpadding="3">
<tr><th>rank</th><th>score</th><th>gene</th><th>name</th><th>query?</th></tr>
`)
		for i, g := range d.Result.Genes {
			star := ""
			if g.IsQuery {
				star = "*"
			}
			fmt.Fprintf(&b, "<tr><td>%d</td><td>%.4f</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
				i+1, g.Score, esc(g.ID), esc(g.Name), star)
		}
		b.WriteString("</table>\n")
	}
	b.WriteString("</body></html>")
	return b.String()
}

type pageData struct {
	NumDatasets int
	NumGenes    int
	Query       string
	Error       string
	// Notice is a non-fatal service disclosure (degraded shard coverage).
	Notice string
	Result *spell.Result
}

func (p *page) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	p.renderPage(w, pageData{
		NumDatasets: p.engine.NumDatasets(),
		NumGenes:    p.engine.NumGenes(),
	})
}

func (p *page) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	data := pageData{
		NumDatasets: p.engine.NumDatasets(),
		NumGenes:    p.engine.NumGenes(),
		Query:       q,
	}
	ids := ParseQuery(q)
	if len(ids) == 0 {
		data.Error = "enter at least one gene ID"
		p.renderPage(w, data)
		return
	}
	if len(spell.CanonicalQuery(ids)) < 2 {
		// One gene has no query pairs: every dataset's coherence is NaN and
		// the ranking is weightless. Same contract as the daemon's API.
		data.Error = "enter at least two distinct gene IDs: SPELL's dataset weighting needs a pair to measure coherence"
		p.renderPage(w, data)
		return
	}
	res, notice, err := p.engine.SearchCtx(r.Context(), ids, spell.Options{MaxGenes: maxGenes, IncludeQuery: true})
	if err != nil {
		data.Error = err.Error()
		p.renderPage(w, data)
		return
	}
	data.Result, data.Notice = res, notice
	p.renderPage(w, data)
}

func (p *page) renderPage(w http.ResponseWriter, data pageData) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = io.WriteString(w, pageHTML(data)) // a client that hung up gets nothing more
}

// ParseQuery splits a comma/whitespace separated gene list. It is the one
// query-string grammar shared by the HTML form and the query daemon's
// JSON endpoints.
func ParseQuery(q string) []string {
	var out []string
	for _, f := range strings.FieldsFunc(q, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t' || r == '\n'
	}) {
		f = strings.TrimSpace(f)
		if f != "" {
			out = append(out, f)
		}
	}
	return out
}
