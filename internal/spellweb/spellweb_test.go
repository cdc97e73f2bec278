package spellweb

import (
	"context"
	"fmt"
	"html"
	"html/template"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"testing"

	"forestview/internal/spell"
	"forestview/internal/synth"
)

// engineSearcher mounts the page straight on an engine: no cache, nothing
// to disclose.
type engineSearcher struct{ *spell.Engine }

func (e engineSearcher) SearchCtx(ctx context.Context, ids []string, opt spell.Options) (*spell.Result, string, error) {
	res, err := e.Engine.SearchCtx(ctx, ids, opt)
	return res, "", err
}

func testServer(t *testing.T) (http.Handler, *synth.Universe) {
	t.Helper()
	u := synth.NewUniverse(200, 8, 111)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 4, MinExperiments: 10, MaxExperiments: 16,
		ActiveFraction: 0.5, Noise: 0.25, Seed: 113,
	})
	engine, err := spell.NewEngine(dss)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	RegisterHTML(mux, engineSearcher{engine})
	return mux, u
}

func TestIndexPage(t *testing.T) {
	s, _ := testServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "SPELL") || !strings.Contains(body, "4 datasets") {
		t.Fatalf("index body missing content: %s", body[:200])
	}
}

func TestIndexNotFoundForOtherPaths(t *testing.T) {
	s, _ := testServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d", rec.Code)
	}
}

func TestSearchHTML(t *testing.T) {
	s, u := testServer(t)
	ids := u.ModuleGeneIDs(3)
	q := strings.Join(ids[:3], ",")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q="+q, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "Datasets by relevance") {
		t.Fatal("results table missing")
	}
	if !strings.Contains(body, ids[0]) {
		t.Fatal("query gene missing from results")
	}
}

func TestSearchHTMLEmptyQuery(t *testing.T) {
	s, _ := testServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q=", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "at least one gene") {
		t.Fatalf("empty query handling: %d", rec.Code)
	}
}

func TestSearchHTMLUnknownGenes(t *testing.T) {
	s, _ := testServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q=NOPE1,NOPE2", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "none of the") {
		t.Fatal("error message missing")
	}
}

// TestSearchHTMLSingleGeneRejected: the page shares the daemon's
// single-gene contract — one gene (even duplicated) means NaN coherence in
// every dataset rank, so it renders the guidance instead of a weightless
// ranking.
func TestSearchHTMLSingleGeneRejected(t *testing.T) {
	s, u := testServer(t)
	g := u.ModuleGeneIDs(1)[0]
	for _, q := range []string{g, g + "," + g} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q="+q, nil))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "two distinct gene IDs") {
			t.Fatalf("q=%s: HTML single-gene search: %d %q", q, rec.Code, rec.Body.String())
		}
		if strings.Contains(rec.Body.String(), "Datasets by relevance") {
			t.Fatalf("q=%s: single-gene search rendered a ranking", q)
		}
	}
}

func TestParseQuery(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"A,B,C", 3},
		{"A B\tC\nD", 4},
		{"  A ,, B ", 2},
		{"", 0},
		{" ,, ", 0},
	}
	for _, c := range cases {
		if got := ParseQuery(c.in); len(got) != c.want {
			t.Errorf("ParseQuery(%q) = %v, want %d items", c.in, got, c.want)
		}
	}
}

// TestMaxGenesCap: the page lists at most maxGenes result genes however
// large the compendium.
func TestMaxGenesCap(t *testing.T) {
	s, u := testServer(t)
	ids := u.ModuleGeneIDs(3)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q="+strings.Join(ids[:3], ","), nil))
	_, genes, ok := strings.Cut(rec.Body.String(), "Genes by weighted correlation")
	if !ok {
		t.Fatalf("no gene table:\n%s", rec.Body.String())
	}
	if rows := strings.Count(genes, "<tr><td>"); rows != maxGenes {
		t.Fatalf("gene table has %d rows, want the cap %d of %d genes", rows, maxGenes, len(u.GeneIDs()))
	}
}

// refPageTmpl is the html/template the page was rendered through before
// pageHTML wrote it, kept verbatim as the reference for what a reader sees.
var refPageTmpl = template.Must(template.New("page").Funcs(template.FuncMap{
	"inc": func(i int) int { return i + 1 },
}).Parse(`<!DOCTYPE html>
<html><head><title>SPELL search</title></head>
<body>
<h1>SPELL: Serial Patterns of Expression Levels Locator</h1>
<p>{{.NumDatasets}} datasets, {{.NumGenes}} genes in the compendium.</p>
<form action="/search" method="get">
  <input type="text" name="q" size="60" value="{{.Query}}"
         placeholder="query genes, comma separated (e.g. YAL001C, YBR072W)">
  <input type="submit" value="Search">
</form>
{{if .Error}}<p style="color:red">{{.Error}}</p>{{end}}
{{if .Notice}}<p style="color:darkorange"><b>notice:</b> {{.Notice}}</p>{{end}}
{{if .Result}}
<h2>Datasets by relevance</h2>
<table border="1" cellpadding="3">
<tr><th>rank</th><th>weight</th><th>query coherence</th><th>query genes present</th><th>dataset</th></tr>
{{range $i, $d := .Result.Datasets}}
<tr><td>{{inc $i}}</td><td>{{printf "%.4f" $d.Weight}}</td><td>{{printf "%.3f" $d.QueryCoherence}}</td><td>{{$d.QueryPresent}}</td><td>{{$d.Name}}</td></tr>
{{end}}
</table>
<h2>Genes by weighted correlation</h2>
<table border="1" cellpadding="3">
<tr><th>rank</th><th>score</th><th>gene</th><th>name</th><th>query?</th></tr>
{{range $i, $g := .Result.Genes}}
<tr><td>{{inc $i}}</td><td>{{printf "%.4f" $g.Score}}</td><td>{{$g.ID}}</td><td>{{$g.Name}}</td><td>{{if $g.IsQuery}}*{{end}}</td></tr>
{{end}}
</table>
{{end}}
</body></html>`))

var (
	// tag matches one tag; no value a page writes holds a raw < or >.
	tag = regexp.MustCompile(`<[^>]*>`)
	// queryValue matches the query box's value attribute.
	queryValue = regexp.MustCompile(`<input type="text" name="q" size="60" value="([^"]*)"`)
)

// visibleText is the text a reader of page sees: tags stripped, entities
// unescaped, whitespace collapsed.
func visibleText(page string) string {
	return collapse(html.UnescapeString(tag.ReplaceAllString(page, " ")))
}

func collapse(s string) string { return strings.Join(strings.Fields(s), " ") }

// cutQuery returns the decoded value attribute of page's query box and the
// page with that attribute emptied; ok is false if the box is missing.
func cutQuery(page string) (query, rest string, ok bool) {
	m := queryValue.FindStringSubmatchIndex(page)
	if m == nil {
		return "", page, false
	}
	return html.UnescapeString(page[m[2]:m[3]]), page[:m[2]] + page[m[3]:], true
}

// TestPageMatchesTemplate: pageHTML shows what the template it replaced
// showed: the same visible text and the same query in the search box.
// The bytes differ (the template escapes + and keeps its actions' blank
// lines), which no reader sees.
func TestPageMatchesTemplate(t *testing.T) {
	result := &spell.Result{
		Datasets: []spell.DatasetRank{
			{Name: "stress (heat)", Weight: 0.61234, QueryCoherence: 1.23456, QueryPresent: 3},
			{Name: "knockouts", Weight: 0.38766, QueryCoherence: math.NaN(), QueryPresent: 1},
		},
		Genes: []spell.GeneRank{
			{ID: "YAL001C", Name: "TFC3", Score: 0.98765, IsQuery: true},
			{ID: "YBR072W", Name: "HSP26", Score: -0.5},
		},
	}
	const odd = `a"b'c<d>e&f+g &amp; <script>`
	for _, c := range []struct {
		name string
		data pageData
	}{
		{"index", pageData{NumDatasets: 4, NumGenes: 200}},
		{"error", pageData{NumDatasets: 4, NumGenes: 200, Query: "NOPE1,NOPE2",
			Error: "none of the query genes occur in the compendium"}},
		{"notice", pageData{NumDatasets: 4, NumGenes: 200, Query: "YAL001C,YBR072W",
			Notice: "1 of 2 shards answered; the ranking is degraded", Result: result}},
		{"escaping", pageData{NumDatasets: 1, NumGenes: 1, Query: odd, Error: odd, Notice: odd,
			Result: &spell.Result{
				Datasets: []spell.DatasetRank{{Name: odd, Weight: 1, QueryCoherence: math.NaN()}},
				Genes:    []spell.GeneRank{{ID: odd, Name: odd, IsQuery: true}},
			}}},
	} {
		var ref strings.Builder
		if err := refPageTmpl.Execute(&ref, c.data); err != nil {
			t.Fatal(err)
		}
		got := pageHTML(c.data)
		refQuery, refRest, ok := cutQuery(ref.String())
		if !ok {
			t.Fatalf("%s: the template's page has no query box", c.name)
		}
		gotQuery, gotRest, ok := cutQuery(got)
		if !ok || gotQuery != refQuery || gotQuery != c.data.Query {
			t.Errorf("%s: query box holds %q (found %v), template %q, want %q", c.name, gotQuery, ok, refQuery, c.data.Query)
		}
		if g, r := visibleText(gotRest), visibleText(refRest); g != r {
			t.Errorf("%s: visible text differs\n got: %s\nwant: %s", c.name, g, r)
		}
	}
}

// FuzzSpellPage: whatever a query, an error, a notice, a dataset name or a
// gene name holds, it comes out of the page as that text and nothing else.
// The page is compared with the same page over placeholders: the same
// tags in the same order (no new element, no attribute broken out of),
// the query decoded whole from its box, and the visible text the
// placeholders' with each value in its place.
func FuzzSpellPage(f *testing.F) {
	f.Fuzz(func(t *testing.T, query, errMsg, notice, dataset, gene string) {
		vals := []string{query, errMsg, notice, dataset, gene}
		holders := make([]string, len(vals))
		var pairs []string
		for i, v := range vals {
			if v != "" { // an empty value leaves its element out
				holders[i] = fmt.Sprintf("PLACEHOLDER%d", i)
				pairs = append(pairs, holders[i], v)
			}
		}
		page := func(v []string) string {
			return pageHTML(pageData{NumDatasets: 1, NumGenes: 1, Query: v[0], Error: v[1], Notice: v[2],
				Result: &spell.Result{
					Datasets: []spell.DatasetRank{{Name: v[3], Weight: 1}},
					Genes:    []spell.GeneRank{{ID: "YAL001C", Name: v[4]}},
				}})
		}
		got := page(vals)
		gotQuery, gotRest, ok := cutQuery(got)
		if !ok || gotQuery != query {
			t.Fatalf("query box holds %q (found %v), want %q:\n%s", gotQuery, ok, query, got)
		}
		_, refRest, _ := cutQuery(page(holders))
		if g, r := tag.FindAllString(gotRest, -1), tag.FindAllString(refRest, -1); !slices.Equal(g, r) {
			t.Fatalf("tags differ from the placeholder page's:\n got: %q\nwant: %q", g, r)
		}
		want := collapse(strings.NewReplacer(pairs...).Replace(html.UnescapeString(tag.ReplaceAllString(refRest, " "))))
		if g := visibleText(gotRest); g != want {
			t.Fatalf("visible text differs\n got: %s\nwant: %s", g, want)
		}
	})
}
