package spellweb

import (
	"context"
	"net/http"
	"net/http/httptest"
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
