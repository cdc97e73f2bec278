package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync/atomic"
	"testing"

	"forestview/internal/golem"
	"forestview/internal/ontology"
	"forestview/internal/spell"
)

// enrichAnswer computes the answer to an enrich request the way the daemon
// does: look the request's owner tuples up in the topology's group table,
// translate each into a slice index, and tally the slices.
func (s *testShard) enrichAnswer(ctx context.Context, req *EnrichRequest) (*EnrichAnswer, error) {
	slices, n := []int{0}, 1 // no groups: the universe as slice 0 of 1
	if len(req.Groups) > 0 {
		table := NewGroupTable(s.allIDs, req.Shards, req.Replication)
		slices, n = slices[:0], len(table.Tuples)
		for _, owners := range req.Groups {
			gi, ok := table.Lookup(owners)
			if !ok {
				return nil, errors.New("unknown ownership group")
			}
			slices = append(slices, gi)
		}
	}
	var answer EnrichAnswer
	for _, gi := range slices {
		p, err := s.enr.PartialAnalyzeCtx(ctx, req.Selection, gi, n)
		if err != nil {
			return nil, err
		}
		answer.Slices = append(answer.Slices, p)
	}
	return &answer, nil
}

// enrichHandler serves EnrichPath with enrichAnswer.
func (s *testShard) enrichHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, err := readRequest[EnrichRequest](r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if s.enrichBehave != nil && s.enrichBehave(w, &req) {
			return
		}
		answer, err := s.enrichAnswer(r.Context(), &req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		writeAnswer(w, answer)
	}
}

func (s *testShard) enrichCatalogHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", AnswerContentType)
		body, _ := s.enr.Catalog().AppendBinary(nil)
		_, _ = w.Write(body)
	}
}

// testEnricher builds a deterministic enrichment universe: a star ontology
// with random annotations over the given gene universe. Identical seeds
// build identical enrichers (same fingerprint) — the homogeneous-fleet
// assumption the daemons satisfy by loading the same ontology files.
func testEnricher(t testing.TB, seed int64, nGenes, nTerms int) (*golem.Enricher, []string) {
	t.Helper()
	o := ontology.New()
	if err := o.AddTerm(&ontology.Term{ID: "T0000", Name: "root"}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < nTerms; i++ {
		id := fmt.Sprintf("T%04d", i)
		if err := o.AddTerm(&ontology.Term{ID: id, Name: "term " + id, Parents: []string{"T0000"}}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	ann := ontology.NewAnnotations()
	var background []string
	for g := 0; g < nGenes; g++ {
		gene := fmt.Sprintf("EG%05d", g)
		background = append(background, gene)
		for a := 0; a < 1+rng.Intn(3); a++ {
			ann.Add(gene, fmt.Sprintf("T%04d", rng.Intn(nTerms)))
		}
	}
	enr, err := golem.NewEnricher(o, ann, background)
	if err != nil {
		t.Fatal(err)
	}
	sel := make([]string, 0, nGenes/5)
	for g := 0; g < nGenes/5; g++ {
		sel = append(sel, background[rng.Intn(len(background))])
	}
	return enr, sel
}

// withEnrichers arms every fixture shard with an enricher built from the
// same seed, as daemons loading the same ontology would.
func (f *scatterFixture) withEnrichers(t testing.TB, seed int64) []string {
	t.Helper()
	var sel []string
	for _, sh := range f.shards {
		sh.enr, sel = testEnricher(t, seed, 400, 120)
	}
	return sel
}

func assertEnrichParity(t *testing.T, got, want []golem.Enrichment) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("result count %d vs %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.TermID != w.TermID || g.Selected != w.Selected || g.Background != w.Background ||
			g.SelectionSize != w.SelectionSize || g.BackgroundSize != w.BackgroundSize {
			t.Fatalf("rank %d: %+v vs %+v", i, g, w)
		}
		if math.Abs(g.PValue-w.PValue) > 1e-12 || math.Abs(g.FDR-w.FDR) > 1e-12 {
			t.Fatalf("rank %d (%s): p %v vs %v", i, w.TermID, g.PValue, w.PValue)
		}
	}
}

// TestEnrichScatterMatchesAnalyze: the distributed acceptance proof at the
// scatter layer — for fleets of {1,2,3,5} shards at R∈{1,2}, the merged
// coordinator enrichment equals single-process Analyze exactly.
func TestEnrichScatterMatchesAnalyze(t *testing.T) {
	for _, tc := range []struct{ shards, repl int }{
		{1, 1}, {2, 1}, {3, 1}, {5, 1}, {2, 2}, {3, 2}, {5, 2},
	} {
		t.Run(fmt.Sprintf("%dshards-r%d", tc.shards, tc.repl), func(t *testing.T) {
			f := newScatterFixtureN(t, tc.shards, tc.repl, 4*tc.shards)
			sel := f.withEnrichers(t, 5)
			c, _ := f.start(t, Config{Replication: tc.repl})
			for _, opt := range []golem.Options{{}, {MinSelected: 2, MaxPValue: 0.5}} {
				want, err := f.shards[0].enr.Analyze(sel, opt)
				if err != nil {
					t.Fatal(err)
				}
				res, meta, err := c.EnrichCtx(context.Background(), sel, opt)
				if err != nil {
					t.Fatalf("EnrichCtx %+v: %v", opt, err)
				}
				if meta.Degraded || meta.GroupsOK != meta.GroupsTotal {
					t.Fatalf("healthy fleet degraded: %+v", meta)
				}
				assertEnrichParity(t, res.Results, want)
				if res.Background != f.shards[0].enr.BackgroundSize() {
					t.Fatalf("merged background %d, want %d", res.Background, f.shards[0].enr.BackgroundSize())
				}
			}
		})
	}
}

// TestEnrichScatterReplicaFailover: at R=2 a dead shard costs nothing —
// every slice fails over to a surviving replica (or the scavenge pass) and
// the merge stays exact and non-degraded.
func TestEnrichScatterReplicaFailover(t *testing.T) {
	f := newScatterFixtureR(t, 3, 2)
	sel := f.withEnrichers(t, 7)
	c, servers := f.start(t, Config{Replication: 2})
	want, err := f.shards[0].enr.Analyze(sel, golem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	servers[1].Close()
	res, meta, err := c.EnrichCtx(context.Background(), sel, golem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Degraded {
		t.Fatalf("degraded despite replication: %+v", meta)
	}
	assertEnrichParity(t, res.Results, want)
}

// TestEnrichScatterOntologyLessShard is the mixed-fleet case: a shard
// without an ontology 404s the enrich endpoints. Because any capable shard
// can serve any background slice, the fleet still answers exactly and
// non-degraded as long as one capable shard is reachable; a fleet with no
// capable shard at all reports ErrNoEnrichment (not an outage).
func TestEnrichScatterOntologyLessShard(t *testing.T) {
	for _, tc := range []struct {
		name    string
		capable func(si int) bool
		wantErr error
	}{
		{"one-dark-shard", func(si int) bool { return si != 1 }, nil},
		{"only-one-capable", func(si int) bool { return si == 0 }, nil},
		{"none-capable", func(si int) bool { return false }, ErrNoEnrichment},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newScatterFixtureR(t, 3, 1)
			sel := f.withEnrichers(t, 11)
			want, err := f.shards[0].enr.Analyze(sel, golem.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for si, sh := range f.shards {
				if !tc.capable(si) {
					sh.enr = nil // start() will not register the enrich endpoints
				}
			}
			c, _ := f.start(t, Config{})
			res, meta, err := c.EnrichCtx(context.Background(), sel, golem.Options{})
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if meta.Degraded {
				t.Fatalf("capable shards reachable, still degraded: %+v", meta)
			}
			assertEnrichParity(t, res.Results, want)
			// Search keeps working either way — capabilities are per-path.
			if _, _, err := c.SearchCtx(context.Background(), f.query, spell.Options{}); err != nil {
				t.Fatalf("search broken by enrichment gap: %v", err)
			}
		})
	}
}

// TestEnrichScatterDegraded forces real slice loss: every capable shard
// refuses one specific group (as an overloaded fleet might), so the merge
// covers the remaining slices and says so. A selection whose genes all
// live in the lost slice is ErrDegradedUnresolved — retryable — not the
// 422-style ErrNoSelection a truly unknown selection earns.
func TestEnrichScatterDegraded(t *testing.T) {
	f := newScatterFixtureR(t, 2, 1)
	sel := f.withEnrichers(t, 13)
	enr := f.shards[0].enr

	// Find the group list the fleet will derive and refuse its last group.
	groups := Groups(f.ids, f.identities, 1)
	if len(groups) < 2 {
		t.Fatalf("fixture derives %d groups, need >= 2", len(groups))
	}
	lost := len(groups) - 1
	refuse := func(w http.ResponseWriter, req *EnrichRequest) bool {
		table := NewGroupTable(f.ids, req.Shards, req.Replication)
		for _, owners := range req.Groups {
			if gi, _ := table.Lookup(owners); gi == lost {
				http.Error(w, "refusing slice for test", http.StatusInternalServerError)
				return true
			}
		}
		return false
	}
	for _, sh := range f.shards {
		sh.enrichBehave = refuse
	}
	c, _ := f.start(t, Config{})

	res, meta, err := c.EnrichCtx(context.Background(), sel, golem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Degraded || meta.GroupsOK != len(groups)-1 {
		t.Fatalf("want degraded with %d/%d groups, got %+v", len(groups)-1, len(groups), meta)
	}
	if res.Background >= enr.BackgroundSize() {
		t.Fatalf("degraded background %d not reduced from %d", res.Background, enr.BackgroundSize())
	}

	// A selection living wholly in the lost slice: unresolved, not invalid.
	hidden := genesInSlice(t, enr, lost, len(groups))
	if _, _, err := c.EnrichCtx(context.Background(), hidden, golem.Options{}); !errors.Is(err, ErrDegradedUnresolved) {
		t.Fatalf("hidden-slice selection: err = %v, want ErrDegradedUnresolved", err)
	}
	// A selection the universe has never seen: ErrNoSelection even degraded.
	if _, _, err := c.EnrichCtx(context.Background(), []string{"NO-SUCH-GENE"}, golem.Options{}); !errors.Is(err, golem.ErrNoSelection) {
		t.Fatalf("unknown selection: err = %v, want ErrNoSelection", err)
	}
}

// genesInSlice returns a few universe genes whose bit positions land in
// word-range slice gi of G — computed through the public partial API so the
// test doesn't reach into the kernel's layout.
func genesInSlice(t *testing.T, enr *golem.Enricher, gi, G int) []string {
	t.Helper()
	var out []string
	for g := 0; g < 400 && len(out) < 3; g++ {
		gene := fmt.Sprintf("EG%05d", g)
		p, err := enr.PartialAnalyze([]string{gene}, gi, G)
		if err != nil {
			t.Fatal(err)
		}
		if p.InBackground[0] && p.SelectionSize == 1 {
			out = append(out, gene)
		}
	}
	if len(out) == 0 {
		t.Skipf("slice %d/%d holds no probe genes", gi, G)
	}
	return out
}

// TestEnrichScatterFingerprintMismatch: a shard whose enricher was built
// differently (file-mode shard with a slice-local background) must be
// failed over, never merged.
func TestEnrichScatterFingerprintMismatch(t *testing.T) {
	f := newScatterFixtureR(t, 2, 1)
	sel := f.withEnrichers(t, 17)
	want, err := f.shards[0].enr.Analyze(sel, golem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Shard 1 builds from a different universe: same API, wrong fingerprint.
	f.shards[1].enr, _ = testEnricher(t, 99, 300, 80)
	c, _ := f.start(t, Config{})
	res, meta, err := c.EnrichCtx(context.Background(), sel, golem.Options{})
	if err != nil {
		// Acceptable only if the catalog itself came from the odd shard and
		// every slice then failed over to... shard 0, which mismatches it.
		// Either way nothing wrong was merged.
		t.Skipf("whole scatter refused (catalog from mismatched shard): %v", err)
	}
	if meta.Degraded {
		t.Fatalf("mismatch should fail over to the consistent shard: %+v", meta)
	}
	// Whichever catalog won, the merged results must be internally exact:
	// they either match shard 0's universe or shard 1's.
	alt, aerr := f.shards[1].enr.Analyze(sel, golem.Options{})
	matches := func(w []golem.Enrichment, werr error) bool {
		if werr != nil || len(res.Results) != len(w) {
			return false
		}
		for i := range w {
			if res.Results[i] != w[i] {
				return false
			}
		}
		return true
	}
	if !matches(want, nil) && !matches(alt, aerr) {
		t.Fatalf("merged results match neither enricher's exact analysis")
	}
}

// TestEnrichScatterRefusesLyingSlices: slice tallies are checked field by
// field before they are merged. A shard lying in any one of them is failed
// over like a dead one — at R=2 the merge is exact and non-degraded through
// the honest replicas, and a fleet that is one such shard is an outage —
// where merging it unchecked indexed the selection out of range (a long
// InBackground) or sized the process-wide log-factorial table by the lie.
func TestEnrichScatterRefusesLyingSlices(t *testing.T) {
	lies := map[string]func(p *golem.PartialCounts){
		"long InBackground":   func(p *golem.PartialCounts) { p.InBackground = append(p.InBackground, true) },
		"short InBackground":  func(p *golem.PartialCounts) { p.InBackground = p.InBackground[1:] },
		"negative selection":  func(p *golem.PartialCounts) { p.SelectionSize = -1 },
		"oversized selection": func(p *golem.PartialCounts) { p.SelectionSize = len(p.InBackground) + 1 },
		"negative background": func(p *golem.PartialCounts) { p.BackgroundSize = -1 },
		"oversized background": func(p *golem.PartialCounts) {
			p.BackgroundSize = 401 // the fixture's universe is 400 genes
		},
		"short Selected":  func(p *golem.PartialCounts) { p.Selected = p.Selected[1:] },
		"long Background": func(p *golem.PartialCounts) { p.Background = append(p.Background, 0) },
		"negative tally":  func(p *golem.PartialCounts) { p.Selected[len(p.Selected)-1] = -1 },
	}
	for name, lie := range lies {
		for _, tc := range []struct{ shards, repl int }{{3, 2}, {1, 1}} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, tc.shards), func(t *testing.T) {
				f := newScatterFixtureR(t, tc.shards, tc.repl)
				sel := f.withEnrichers(t, 23)
				liar := f.shards[tc.shards-1]
				var lied atomic.Int64
				liar.enrichBehave = func(w http.ResponseWriter, req *EnrichRequest) bool {
					answer, err := liar.enrichAnswer(context.Background(), req)
					if err != nil {
						return false
					}
					for _, p := range answer.Slices {
						lie(p)
					}
					lied.Add(1)
					writeAnswer(w, answer)
					return true
				}
				c, _ := f.start(t, Config{Replication: tc.repl})
				// The honest shards drain, so the liar is every group's first
				// choice wherever it is a replica.
				for _, id := range f.identities[:tc.shards-1] {
					c.SetDraining(id, true)
				}
				res, meta, err := c.EnrichCtx(context.Background(), sel, golem.Options{})
				if lied.Load() == 0 {
					t.Fatal("fixture: the lying shard was never asked")
				}
				if tc.shards == 1 {
					if !errors.Is(err, ErrAllShardsFailed) {
						t.Fatalf("a fleet of one lying shard: res = %+v, err = %v, want ErrAllShardsFailed", res, err)
					}
					return
				}
				if err != nil || meta.Degraded {
					t.Fatalf("err = %v, meta = %+v: want a clean merge through the honest replicas", err, meta)
				}
				want, err := f.shards[0].enr.Analyze(sel, golem.Options{})
				if err != nil {
					t.Fatal(err)
				}
				assertEnrichParity(t, res.Results, want)
				if genes := spell.CanonicalQuery(sel); len(res.InBackground) != len(genes) {
					t.Fatalf("InBackground discloses %d genes of a selection of %d", len(res.InBackground), len(genes))
				}
			})
		}
	}
}
