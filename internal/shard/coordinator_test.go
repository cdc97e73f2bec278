package shard

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"forestview/internal/golem"
	"forestview/internal/microarray"
	"forestview/internal/spell"
	"forestview/internal/synth"
)

// testShard is one in-process shard backend: an engine over its owned
// slice of the compendium with global-index remapping and the ownership
// group protocol, plus a per-request behavior hook for failure injection.
type testShard struct {
	engine *spell.Engine
	global []int       // local index -> global index
	g2l    map[int]int // global index -> local index
	allIDs []string    // the full boot catalog, global order
	// behave, when non-nil, may hijack a search request before the real
	// handler runs; return true when it wrote the response.
	behave func(n int64, w http.ResponseWriter, r *http.Request) bool
	calls  atomic.Int64
	// asked, when non-nil, sees every decoded search request the real
	// handler serves.
	asked func(req *SearchRequest)
	// disown lists global dataset indexes the shard holds but answers as if
	// it did not: membership drift, a group held only in part.
	disown map[int]bool

	// enr, when non-nil, makes the shard enrichment-capable (start
	// registers the enrich endpoints); enrichBehave may hijack a decoded
	// enrich request, returning true when it wrote the response.
	enr          *golem.Enricher
	enrichBehave func(w http.ResponseWriter, req *EnrichRequest) bool
}

// holdsAll reports whether the shard holds (and owns up to) every one of the
// given global dataset indexes.
func (s *testShard) holdsAll(members []int) bool {
	for _, gi := range members {
		if _, ok := s.g2l[gi]; !ok || s.disown[gi] {
			return false
		}
	}
	return true
}

// partial computes the shard's partial over the datasets it holds of the
// given global indexes (nil: everything held), scanned in ascending local
// order, indexes remapped to global.
func (s *testShard) partial(ctx context.Context, query []string, members []int, uniform bool) (*spell.Partial, error) {
	var subset []int
	if members != nil {
		subset = []int{} // non-nil: an empty group intersection is an empty partial
		for _, gi := range members {
			if li, ok := s.g2l[gi]; ok && !s.disown[gi] {
				subset = append(subset, li)
			}
		}
		slices.Sort(subset)
	}
	p, err := s.engine.PartialSearchSubsetCtx(ctx, query, subset, spell.Options{UniformWeights: uniform})
	if err != nil {
		return nil, err
	}
	for i := range p.Datasets {
		p.Datasets[i].Index = s.global[p.Datasets[i].Index]
	}
	return p, nil
}

// ServeHTTP serves SearchPath the way the daemon does: look the request's
// owner tuples up in the topology's group table, and answer with one scan of
// the groups held completely plus one part per group held in part.
func (s *testShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := s.calls.Add(1)
	if s.behave != nil && s.behave(n, w, r) {
		return
	}
	req, err := readRequest[SearchRequest](r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if s.asked != nil {
		s.asked(&req)
	}
	var answer SearchAnswer
	fail := func(err error) { http.Error(w, err.Error(), http.StatusUnprocessableEntity) }
	if len(req.Groups) == 0 {
		p, err := s.partial(r.Context(), req.Query, nil, req.Uniform)
		if err != nil {
			fail(err)
			return
		}
		answer.Parts = []SearchPart{{Partial: p}}
	} else {
		table := NewGroupTable(s.allIDs, req.Shards, req.Replication)
		var whole SearchPart
		var union []int // the members of the groups held completely
		for pos, owners := range req.Groups {
			gi, ok := table.Lookup(owners)
			if !ok {
				fail(fmt.Errorf("unknown ownership group %v", owners))
				return
			}
			if s.holdsAll(table.Members[gi]) {
				whole.Groups, union = append(whole.Groups, pos), append(union, table.Members[gi]...)
				continue
			}
			p, err := s.partial(r.Context(), req.Query, table.Members[gi], req.Uniform)
			if err != nil {
				fail(err)
				return
			}
			answer.Parts = append(answer.Parts, SearchPart{Groups: []int{pos}, Partial: p})
		}
		if len(whole.Groups) > 0 {
			var err error
			if whole.Partial, err = s.partial(r.Context(), req.Query, union, req.Uniform); err != nil {
				fail(err)
				return
			}
			answer.Parts = append(answer.Parts, whole)
		}
	}
	writeAnswer(w, &answer)
}

// writeAnswer writes an answer body as the daemon's shard role does.
func writeAnswer(w http.ResponseWriter, a interface{ AppendBinary([]byte) ([]byte, error) }) {
	body, err := a.AppendBinary(nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", AnswerContentType)
	_, _ = w.Write(body)
}

// infoHandler serves the shard's InfoPath: held slice plus boot catalog.
func (s *testShard) infoHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		held := make([]string, len(s.global))
		for i, gi := range s.global {
			held[i] = s.allIDs[gi]
		}
		body, _ := (&Info{
			GeneIDs:       s.engine.GeneIDs(),
			DatasetIDs:    held,
			AllDatasetIDs: s.allIDs,
		}).AppendBinary(nil)
		w.Header().Set("Content-Type", AnswerContentType)
		_, _ = w.Write(body)
	}
}

type scatterFixture struct {
	dss        []*microarray.Dataset
	ids        []string // dataset names, global order
	identities []string // logical shard identities (the rendezvous participants)
	full       *spell.Engine
	shards     []*testShard
	query      []string
}

// newScatterFixtureR places a synthetic compendium over nShards
// in-process backends by top-r rendezvous ownership — the same placement
// the daemons derive from -shards/-self — using logical identities
// resolved to httptest listeners at start.
func newScatterFixtureR(t testing.TB, nShards, repl int) *scatterFixture {
	return newScatterFixtureN(t, nShards, repl, 8)
}

// newScatterFixtureN is newScatterFixtureR with a chosen compendium size —
// wider fleets need more datasets for every shard to own some.
func newScatterFixtureN(t testing.TB, nShards, repl, nDatasets int) *scatterFixture {
	t.Helper()
	u := synth.NewUniverse(150, 6, 31)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: nDatasets, MinExperiments: 8, MaxExperiments: 14,
		ActiveFraction: 0.5, Noise: 0.3, Seed: 32,
	})
	full, err := spell.NewEngine(dss)
	if err != nil {
		t.Fatal(err)
	}
	f := &scatterFixture{dss: dss, full: full, query: u.ModuleGeneIDs(2)[:4]}
	for _, ds := range dss {
		f.ids = append(f.ids, ds.Name)
	}
	for s := 0; s < nShards; s++ {
		f.identities = append(f.identities, fmt.Sprintf("shard-%d", s))
	}
	for _, self := range f.identities {
		owned := OwnedIndexesR(f.ids, f.identities, self, repl)
		if len(owned) == 0 {
			t.Fatalf("fixture: %s owns no datasets at r=%d; tune the compendium seed", self, repl)
		}
		var slice []*microarray.Dataset
		g2l := make(map[int]int, len(owned))
		for li, gi := range owned {
			slice = append(slice, dss[gi])
			g2l[gi] = li
		}
		se, err := spell.NewEngine(slice)
		if err != nil {
			t.Fatal(err)
		}
		f.shards = append(f.shards, &testShard{engine: se, global: owned, g2l: g2l, allIDs: f.ids})
	}
	return f
}

func newScatterFixture(t testing.TB, nShards int) *scatterFixture {
	return newScatterFixtureR(t, nShards, 1)
}

// start launches httptest servers for every fixture shard and a
// coordinator whose membership defaults to all of them (set cfg.Shards to
// boot with a subset — the rest stay resolvable for later joins).
func (f *scatterFixture) start(t testing.TB, cfg Config) (*Coordinator, []*httptest.Server) {
	t.Helper()
	urls := make(map[string]string, len(f.shards))
	var servers []*httptest.Server
	for si, sh := range f.shards {
		mux := http.NewServeMux()
		mux.Handle(SearchPath, sh)
		mux.HandleFunc(InfoPath, sh.infoHandler())
		if sh.enr != nil {
			mux.HandleFunc(EnrichPath, sh.enrichHandler())
			mux.HandleFunc(EnrichCatalogPath, sh.enrichCatalogHandler())
		}
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		servers = append(servers, srv)
		urls[f.identities[si]] = srv.URL
	}
	if cfg.Shards == nil {
		cfg.Shards = f.identities
	}
	cfg.Resolve = func(identity string) string { return urls[identity] }
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, servers
}

// assertParity requires got to encode to the single-process result's JSON
// bytes: the same ranking, every weight and score to the bit.
func assertParity(t testing.TB, got, want *spell.Result) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("results differ:\n got %s\nwant %s", g, w)
	}
}

func TestScatterMatchesSingleProcess(t *testing.T) {
	f := newScatterFixture(t, 3)
	c, _ := f.start(t, Config{Deadline: 5 * time.Second})
	opt := spell.Options{IncludeQuery: true, MaxGenes: 30}
	got, meta, err := c.SearchCtx(context.Background(), f.query, opt)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Degraded || meta.ShardsOK != 3 || meta.ShardsTotal != 3 {
		t.Fatalf("meta: %+v", meta)
	}
	if meta.GroupsTotal == 0 || meta.GroupsOK != meta.GroupsTotal {
		t.Fatalf("groups: %+v", meta)
	}
	want, err := f.full.Search(f.query, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, got, want)
}

// TestScatterReplicatedParity is the golden-parity guarantee across
// replication factors: the merged scatter result over a healthy fleet is
// bit-identical to the single-process Search at r=1, 2 and 3 —
// replication changes who serves, never what is computed.
func TestScatterReplicatedParity(t *testing.T) {
	for _, r := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("r=%d", r), func(t *testing.T) {
			f := newScatterFixtureR(t, 3, r)
			c, _ := f.start(t, Config{Deadline: 5 * time.Second, Replication: r})
			opt := spell.Options{IncludeQuery: true, MaxGenes: 30}
			got, meta, err := c.SearchCtx(context.Background(), f.query, opt)
			if err != nil {
				t.Fatal(err)
			}
			if meta.Degraded || meta.Replication != r || meta.GroupsOK != meta.GroupsTotal || meta.GroupsTotal == 0 {
				t.Fatalf("meta: %+v", meta)
			}
			want, err := f.full.Search(f.query, opt)
			if err != nil {
				t.Fatal(err)
			}
			assertParity(t, got, want)
		})
	}
}

// TestScatterReplicaFailover: with r=2, killing one shard outright loses
// nothing — every ownership group still has a live replica, so repeated
// queries stay non-degraded and at golden parity, and the stats record
// the failovers that made it so.
func TestScatterReplicaFailover(t *testing.T) {
	f := newScatterFixtureR(t, 3, 2)
	c, servers := f.start(t, Config{Deadline: 2 * time.Second, Replication: 2})
	servers[1].Close()
	opt := spell.Options{IncludeQuery: true}
	want, err := f.full.Search(f.query, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		got, meta, err := c.SearchCtx(context.Background(), f.query, opt)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if meta.Degraded || meta.GroupsOK != meta.GroupsTotal {
			t.Fatalf("query %d meta: %+v", i, meta)
		}
		assertParity(t, got, want)
	}
	snap := c.Stats()
	if snap.Degraded != 0 {
		t.Fatalf("degraded counter = %d, want 0", snap.Degraded)
	}
	var failovers int64
	for _, s := range snap.Shards {
		failovers += s.Failovers
	}
	if snap.Shards[1].Errors == 0 || failovers == 0 {
		t.Fatalf("failover not exercised: dead errors=%d failovers=%d", snap.Shards[1].Errors, failovers)
	}
}

// TestScatterMembershipElasticity drives the runtime join/leave path:
// a fleet booted short of one member serves degraded (the missing
// member's datasets are unreachable), a Membership.Add restores golden
// parity on the very next scatter (catalog and ownership re-derived under
// the bumped generation), and a Remove degrades honestly again.
func TestScatterMembershipElasticity(t *testing.T) {
	f := newScatterFixtureR(t, 3, 1) // placement as booted for the full trio
	c, _ := f.start(t, Config{Deadline: 2 * time.Second, Shards: f.identities[:2]})
	opt := spell.Options{IncludeQuery: true}

	_, meta, err := c.SearchCtx(context.Background(), f.query, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Degraded || meta.ShardsTotal != 2 {
		t.Fatalf("short fleet meta: %+v", meta)
	}
	gen0 := c.Generation()

	if _, _, err := c.Membership().Add(f.identities[2]); err != nil {
		t.Fatal(err)
	}
	got, meta, err := c.SearchCtx(context.Background(), f.query, opt)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Degraded || meta.ShardsTotal != 3 || meta.ShardsOK != 3 {
		t.Fatalf("post-join meta: %+v", meta)
	}
	want, err := f.full.Search(f.query, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, got, want)
	if c.Generation() == gen0 {
		t.Fatal("join did not change the generation")
	}
	if snap := c.Stats(); snap.MembershipBumps != 1 || snap.ShardsTotal != 3 {
		t.Fatalf("post-join stats: %+v", snap)
	}

	if _, _, err := c.Membership().Remove(f.identities[1]); err != nil {
		t.Fatal(err)
	}
	_, meta, err = c.SearchCtx(context.Background(), f.query, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Degraded || meta.ShardsTotal != 2 {
		t.Fatalf("post-leave meta: %+v", meta)
	}
	if snap := c.Stats(); snap.MembershipBumps != 2 {
		t.Fatalf("post-leave stats: %+v", snap)
	}
}

// TestScatterScavengesMembershipDrift: at R=1 the coordinator lists a
// member that joined without its data, so the datasets placement gives it
// are still held only by their old owner. The member answers its group
// empty, the walk scavenges past it to the old owner, and every merge stays
// whole at golden parity. A walk cut at the replicas degrades it.
func TestScatterScavengesMembershipDrift(t *testing.T) {
	f := newScatterFixtureR(t, 2, 1)
	// shard-0 is the old fleet of one: it still holds the whole compendium.
	all := make([]int, len(f.dss))
	g2l := make(map[int]int, len(f.dss))
	for i := range all {
		all[i], g2l[i] = i, i
	}
	f.shards[0] = &testShard{engine: f.full, global: all, g2l: g2l, allIDs: f.ids}
	// shard-1 joined empty: it answers for none of its placement.
	f.shards[1].disown = map[int]bool{}
	for _, gi := range f.shards[1].global {
		f.shards[1].disown[gi] = true
	}
	c, _ := f.start(t, Config{Deadline: 2 * time.Second})
	opt := spell.Options{IncludeQuery: true, MaxGenes: 30}
	want, err := f.full.Search(f.query, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, meta, err := c.SearchCtx(context.Background(), f.query, opt)
		if err != nil || meta.Degraded || meta.GroupsOK != meta.GroupsTotal {
			t.Fatalf("scatter %d over the drifted fleet: %v, meta %+v", i, err, meta)
		}
		assertParity(t, got, want)
	}
	for _, s := range c.Stats().Shards {
		if s.Errors != 0 || s.Retries != 0 {
			t.Fatalf("no attempt failed, yet %s counted %d errors, %d retries", s.Addr, s.Errors, s.Retries)
		}
		if s.Failovers != 0 {
			t.Fatalf("%s counted %d failovers: no replica failed, the walk only scavenged: %+v", s.Addr, s.Failovers, s)
		}
		if s.Addr == f.identities[0] && s.Scavenges != 3 {
			t.Fatalf("the old owner served %d scavenges, want one a scatter: %+v", s.Scavenges, s)
		}
	}
}

// TestScatterFailureModes is the coordinator failure-mode table: a flaky
// shard that times out, serves 5xx, or is dead must degrade the merge
// (renormalized over the survivors) rather than fail the query; a full
// outage must fail loudly with ErrAllShardsFailed.
func TestScatterFailureModes(t *testing.T) {
	timeoutBehavior := func(n int64, w http.ResponseWriter, r *http.Request) bool {
		// Drain the body first: the server only watches for client
		// disconnect (and cancels r.Context()) once the request body is
		// consumed.
		_, _ = io.Copy(io.Discard, r.Body)
		select { // hold until past the coordinator deadline, politely
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
		return true
	}
	cases := []struct {
		name     string
		behave   func(n int64, w http.ResponseWriter, r *http.Request) bool
		killAlso bool // close the flaky shard's listener entirely
		wantOK   int
	}{
		{
			name:   "timeout",
			behave: timeoutBehavior,
			wantOK: 2,
		},
		{
			name: "5xx",
			behave: func(n int64, w http.ResponseWriter, r *http.Request) bool {
				http.Error(w, "shard exploded", http.StatusInternalServerError)
				return true
			},
			wantOK: 2,
		},
		{
			name:     "dead",
			killAlso: true,
			wantOK:   2,
		},
		{
			// A shard from before batching answers with a bare gob partial,
			// and one from before answer bodies with the gob SearchAnswer
			// envelope: neither is an answer body, and each is an ordinary
			// failed attempt.
			name: "v1-shard",
			behave: func(n int64, w http.ResponseWriter, r *http.Request) bool {
				_ = gob.NewEncoder(w).Encode(spell.Partial{Query: []string{"A"}})
				return true
			},
			wantOK: 2,
		},
		{
			name: "gob-answer-shard",
			behave: func(n int64, w http.ResponseWriter, r *http.Request) bool {
				groups, ok := requestedPositions(r)
				if !ok {
					return false
				}
				_ = gob.NewEncoder(w).Encode(SearchAnswer{Parts: []SearchPart{{Groups: groups, Partial: &spell.Partial{Query: []string{"A"}}}}})
				return true
			},
			wantOK: 2,
		},
		{
			// The body is right and names the requested groups, but the
			// frame inside it is of a version nobody reads (or corrupted):
			// the partial's own decoder rejects it.
			name: "bad-frame",
			behave: func(n int64, w http.ResponseWriter, r *http.Request) bool {
				groups, ok := requestedPositions(r)
				if !ok {
					return false
				}
				w.Header().Set("Content-Type", AnswerContentType)
				_, _ = w.Write(oldFrameAnswer(groups))
				return true
			},
			wantOK: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newScatterFixture(t, 3)
			f.shards[1].behave = tc.behave
			c, servers := f.start(t, Config{Deadline: 300 * time.Millisecond})
			if tc.killAlso {
				servers[1].Close()
			}
			got, meta, err := c.SearchCtx(context.Background(), f.query, spell.Options{IncludeQuery: true})
			if err != nil {
				t.Fatalf("degraded scatter should answer: %v", err)
			}
			if !meta.Degraded || meta.ShardsOK != tc.wantOK || meta.ShardsTotal != 3 {
				t.Fatalf("meta: %+v", meta)
			}
			// The degraded result must equal the merge over the survivors'
			// partials: weights renormalized over shards 0 and 2 only.
			var parts []spell.Partial
			for si, sh := range f.shards {
				if si == 1 {
					continue
				}
				p, err := sh.engine.PartialSearchSubsetCtx(context.Background(), f.query, nil, spell.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for i := range p.Datasets {
					p.Datasets[i].Index = sh.global[p.Datasets[i].Index]
				}
				parts = append(parts, *p)
			}
			want, err := spell.Merge(parts, spell.Options{IncludeQuery: true})
			if err != nil {
				t.Fatal(err)
			}
			assertParity(t, got, want)
			totalW := 0.0
			for _, d := range got.Datasets {
				totalW += d.Weight
			}
			if math.Abs(totalW-1) > 1e-12 {
				t.Fatalf("degraded weights sum to %v, want 1", totalW)
			}
			snap := c.Stats()
			if snap.Degraded != 1 {
				t.Fatalf("degraded counter = %d", snap.Degraded)
			}
			if snap.Shards[1].Errors == 0 {
				t.Fatalf("flaky shard recorded no error: %+v", snap.Shards[1])
			}
		})
	}

	t.Run("full-outage", func(t *testing.T) {
		f := newScatterFixture(t, 2)
		c, servers := f.start(t, Config{Deadline: 300 * time.Millisecond})
		for _, s := range servers {
			s.Close()
		}
		_, meta, err := c.SearchCtx(context.Background(), f.query, spell.Options{})
		if !errors.Is(err, ErrAllShardsFailed) {
			t.Fatalf("err = %v, want ErrAllShardsFailed", err)
		}
		if meta.ShardsOK != 0 {
			t.Fatalf("meta: %+v", meta)
		}
		if c.Stats().FullOutages != 1 {
			t.Fatalf("outage counter = %d", c.Stats().FullOutages)
		}
	})
}

// readRequest reads and decodes the body of a shard request.
func readRequest[R any, PR interface {
	*R
	UnmarshalBinary([]byte) error
}](r *http.Request) (R, error) {
	var req R
	body, err := io.ReadAll(r.Body)
	if err == nil {
		err = PR(&req).UnmarshalBinary(body)
	}
	return req, err
}

// requestedPositions decodes a search request and lists the positions of
// its groups, as an answer covering all of them names them.
func requestedPositions(r *http.Request) ([]int, bool) {
	req, err := readRequest[SearchRequest](r)
	if err != nil {
		return nil, false
	}
	groups := make([]int, len(req.Groups))
	for i := range groups {
		groups[i] = i
	}
	return groups, true
}

// oldFrameAnswer is an answer body whose one part, naming groups, carries a
// partial frame of version 1, which had four accumulator columns and no kind
// byte.
func oldFrameAnswer(groups []int) []byte {
	a := SearchAnswer{Parts: []SearchPart{{Groups: groups, Partial: &spell.Partial{Query: []string{"A", "B"}}}}}
	b, err := a.AppendBinary(nil)
	if err != nil {
		panic(err)
	}
	b[len(answerHead)+4+4*len(groups)+8+4] = 1 // the frame's version byte
	return b
}

// TestScatterRetryRecovers: at R=1 a shard that fails its first attempt
// but answers the second yields a full (non-degraded) result through the
// walk's forced step, and the retry is counted.
func TestScatterRetryRecovers(t *testing.T) {
	f := newScatterFixture(t, 2)
	f.shards[0].behave = func(n int64, w http.ResponseWriter, r *http.Request) bool {
		if n == 1 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return true
		}
		return false
	}
	c, _ := f.start(t, Config{Deadline: 2 * time.Second})
	_, meta, err := c.SearchCtx(context.Background(), f.query, spell.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Degraded || meta.ShardsOK != 2 {
		t.Fatalf("meta: %+v", meta)
	}
	snap := c.Stats()
	if snap.Shards[0].Retries != 1 {
		t.Fatalf("retries = %d, want 1", snap.Shards[0].Retries)
	}
	if snap.Degraded != 0 {
		t.Fatalf("degraded = %d, want 0", snap.Degraded)
	}
}

func TestScatterCallerCancellation(t *testing.T) {
	f := newScatterFixture(t, 2)
	block := make(chan struct{})
	defer close(block)
	f.shards[0].behave = func(n int64, w http.ResponseWriter, r *http.Request) bool {
		_, _ = io.Copy(io.Discard, r.Body) // unblock disconnect detection
		select {
		case <-r.Context().Done():
		case <-block:
		}
		return true
	}
	c, _ := f.start(t, Config{Deadline: 30 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, _, err := c.SearchCtx(ctx, f.query, spell.Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want caller deadline", err)
	}
	if c.Stats().FullOutages != 0 {
		t.Fatal("caller hangup miscounted as an outage")
	}
}

// TestCoordinatorInfoGenerations covers the union info and its
// generation-keyed cache: counts are unioned over held slices, a
// membership bump invalidates the cached answer (it used to be cached
// once forever), and the per-generation cache means a dead member never
// consulted under the current generation costs nothing.
func TestCoordinatorInfoGenerations(t *testing.T) {
	f := newScatterFixtureR(t, 3, 1)
	c, servers := f.start(t, Config{Deadline: 1 * time.Second, Shards: f.identities[:2]})

	info, err := c.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantShort := len(f.dss) - len(f.shards[2].global)
	if info.Datasets != wantShort {
		t.Fatalf("short-fleet datasets = %d, want %d", info.Datasets, wantShort)
	}

	if _, _, err := c.Membership().Add(f.identities[2]); err != nil {
		t.Fatal(err)
	}
	info, err = c.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Datasets != len(f.dss) {
		t.Fatalf("post-join datasets = %d, want %d (stale cached info?)", info.Datasets, len(f.dss))
	}
	if info.Genes != f.full.NumGenes() {
		t.Fatalf("genes = %d, want union %d (per-shard slices overlap)", info.Genes, f.full.NumGenes())
	}

	// Cached under this generation: killing a member does not break Info
	// until the membership changes...
	servers[2].Close()
	if info2, err := c.Info(context.Background()); err != nil || info2.Datasets != len(f.dss) {
		t.Fatalf("cached info after member death: %+v, %v", info2, err)
	}
	// ...and removing the dead member re-probes the survivors immediately
	// (the bump clears any failure cooldown too).
	if _, _, err := c.Membership().Remove(f.identities[2]); err != nil {
		t.Fatal(err)
	}
	info, err = c.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Datasets != wantShort {
		t.Fatalf("post-leave datasets = %d, want %d", info.Datasets, wantShort)
	}
}

func TestNewCoordinatorValidation(t *testing.T) {
	if _, err := NewCoordinator(Config{}); err == nil {
		t.Fatal("empty shard list accepted")
	}
	if _, err := NewCoordinator(Config{Shards: []string{"a:1", "a:1"}}); err == nil {
		t.Fatal("duplicate shard accepted")
	}
	if _, err := NewCoordinator(Config{Shards: []string{"a:1", "b:1"}, Replication: 3}); err == nil {
		t.Fatal("replication beyond fleet size accepted")
	}
	c, err := NewCoordinator(Config{Shards: []string{" host:9001/ ", "http://other:9002"}})
	if err != nil {
		t.Fatal(err)
	}
	// Identities are canonicalized but NOT rewritten into URLs: they must
	// stay byte-identical to the shard daemons' -shards entries for the
	// rendezvous hash. Dialing is the resolver's concern.
	got, _ := c.Membership().Snapshot()
	if got[0] != "host:9001" || got[1] != "http://other:9002" {
		t.Fatalf("identities: %v", got)
	}
	if c.Replication() != 1 {
		t.Fatalf("default replication = %d, want 1", c.Replication())
	}
}

// TestScatterDegradedUnresolved: when the only shards that measured the
// query genes are the dead ones, the survivors' merge must NOT claim the
// genes don't exist — the coordinator converts spell's "none occur" into
// ErrDegradedUnresolved, which the daemon maps to a retryable 503.
func TestScatterDegradedUnresolved(t *testing.T) {
	identities := []string{"s0", "s1"}
	// pin renames a dataset until rendezvous assigns it to the wanted
	// shard, so the test controls placement without touching the hash.
	pin := func(name, want string) string {
		for i := 0; ; i++ {
			cand := fmt.Sprintf("%s#%d", name, i)
			if Owners(cand, identities, 1)[0] == want {
				return cand
			}
		}
	}
	u := synth.NewUniverse(100, 5, 83)
	real, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 2, MinExperiments: 8, MaxExperiments: 10, Seed: 84,
	})
	real[0].Name = pin(real[0].Name, "s1")
	real[1].Name = pin(real[1].Name, "s1")
	realEng, err := spell.NewEngine(real)
	if err != nil {
		t.Fatal(err)
	}
	// Shard s0 holds only gene-disjoint data; shard s1 holds everything
	// the query can resolve against.
	rng := rand.New(rand.NewSource(9))
	lone := &microarray.Dataset{Name: pin("lone", "s0"), Experiments: make([]string, 8)}
	for g := 0; g < 20; g++ {
		id := fmt.Sprintf("LONE-%02d", g)
		row := make([]float64, 8)
		for i := range row {
			row[i] = rng.NormFloat64()
		}
		lone.Genes = append(lone.Genes, microarray.Gene{ID: id, Name: id})
		lone.Data = append(lone.Data, row)
	}
	loneEng, err := spell.NewEngine([]*microarray.Dataset{lone})
	if err != nil {
		t.Fatal(err)
	}
	allIDs := []string{real[0].Name, real[1].Name, lone.Name}
	shards := []*testShard{
		{engine: loneEng, global: []int{2}, g2l: map[int]int{2: 0}, allIDs: allIDs},
		{engine: realEng, global: []int{0, 1}, g2l: map[int]int{0: 0, 1: 1}, allIDs: allIDs},
	}
	urls := make(map[string]string)
	var servers []*httptest.Server
	for si, sh := range shards {
		mux := http.NewServeMux()
		mux.Handle(SearchPath, sh)
		mux.HandleFunc(InfoPath, sh.infoHandler())
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		servers = append(servers, srv)
		urls[identities[si]] = srv.URL
	}
	c, err := NewCoordinator(Config{
		Shards:   identities,
		Deadline: 300 * time.Millisecond,
		Resolve:  func(id string) string { return urls[id] },
	})
	if err != nil {
		t.Fatal(err)
	}
	// With every shard up, genuinely unknown genes ARE the query error.
	if _, _, err := c.SearchCtx(context.Background(), []string{"NO-SUCH-A", "NO-SUCH-B"}, spell.Options{}); err == nil || errors.Is(err, ErrDegradedUnresolved) {
		t.Fatalf("full-coverage unknown genes: err = %v, want plain query error", err)
	}

	servers[1].Close() // kill the shard that held the query genes
	query := u.ModuleGeneIDs(2)[:3]
	_, meta, err := c.SearchCtx(context.Background(), query, spell.Options{})
	if !errors.Is(err, ErrDegradedUnresolved) {
		t.Fatalf("err = %v, want ErrDegradedUnresolved", err)
	}
	if !meta.Degraded || meta.ShardsOK != 1 {
		t.Fatalf("meta: %+v", meta)
	}
}
