package server

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"
	"time"

	"forestview/internal/shard"
	"forestview/internal/spell"
)

// shardBody encodes a shard.SearchRequest or shard.EnrichRequest as the body
// of its POST.
func shardBody(t testing.TB, req any) []byte {
	t.Helper()
	var body []byte
	var err error
	switch q := req.(type) {
	case shard.SearchRequest:
		body, err = q.AppendBinary(nil)
	case shard.EnrichRequest:
		body, err = q.AppendBinary(nil)
	default:
		t.Fatalf("%T is not a shard request", req)
	}
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// postShard drives one shard-protocol POST in-process and decodes a 200's
// answer body into A, as the coordinator's backend does.
func postShard[A any, PA interface {
	*A
	UnmarshalBinary([]byte) error
}](t testing.TB, s *Server, path string, req any) (*httptest.ResponseRecorder, *A) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(shardBody(t, req))))
	if rec.Code != http.StatusOK {
		return rec, nil
	}
	a := new(A)
	if err := PA(a).UnmarshalBinary(rec.Body.Bytes()); err != nil {
		t.Fatalf("%s answered 200 with a body that does not decode: %v", path, err)
	}
	return rec, a
}

// partialBits renders a partial with every float as its bit pattern and its
// dataset rows sorted.
func partialBits(p *spell.Partial) any {
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	rows := make([]string, len(p.Datasets))
	for i, d := range p.Datasets {
		rows[i] = fmt.Sprint(d.Index, d.Name, d.Present, math.Float64bits(d.Coherence))
	}
	slices.Sort(rows)
	return []any{p.Query, p.Uniform, rows, append([]string{}, p.IDs...), append([]string{}, p.Names...),
		bits(p.Sums[0]), bits(p.Sums[1]), bits(p.Sums[2]), bits(p.Sums[3])}
}

// TestShardBatchedAnswers drives the shard endpoints with batched requests
// over fixtureShard's catalog under a 4-shard R=2 topology (the fixture shard
// holds every dataset, so every group completely).
func TestShardBatchedAnswers(t *testing.T) {
	s, u := fixtureShard(t)
	genes := u.ModuleGeneIDs(2)[:4]
	fleet := []string{"shard-0", "shard-1", "shard-2", "shard-3"}
	groups := shard.Groups(s.cfg.ShardDatasetIDs, fleet, 2)
	if len(groups) < 3 {
		t.Fatalf("fixture: %d ownership groups, want a batch of at least 3", len(groups))
	}
	search := func(tuples [][]string, uniform bool) shard.SearchRequest {
		return shard.SearchRequest{Query: genes, Shards: fleet, Replication: 2, Groups: tuples, Uniform: uniform}
	}

	t.Run("batch-is-the-sum-of-its-groups", func(t *testing.T) {
		computed := func() int64 { return s.Stats().Endpoints["shard"].Computed }
		for _, uniform := range []bool{false, true} {
			var singles []spell.Partial
			for _, owners := range groups {
				rec, a := postShard[shard.SearchAnswer](t, s, shard.SearchPath, search([][]string{owners}, uniform))
				if a == nil || len(a.Parts) != 1 || !reflect.DeepEqual(a.Parts[0].Groups, []int{0}) {
					t.Fatalf("single-group request = %d, %+v", rec.Code, a)
				}
				singles = append(singles, *a.Parts[0].Partial)
			}
			// The groups are the whole catalog and the fixture holds all of it:
			// one scan of their union is the whole-slice probe's scan.
			_, probe := postShard[shard.SearchAnswer](t, s, shard.SearchPath, search(nil, uniform))
			want := probe.Parts[0].Partial
			// Asked in either order: the sums do not depend on it (the
			// datasets are listed in the order asked), and the whole batch
			// costs one scan.
			reversed := append([][]string(nil), groups...)
			for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
				reversed[i], reversed[j] = reversed[j], reversed[i]
			}
			var got *spell.Partial
			for _, order := range [][][]string{groups, reversed} {
				before := computed()
				rec, a := postShard[shard.SearchAnswer](t, s, shard.SearchPath, search(order, uniform))
				if a == nil || len(a.Parts) != 1 || len(a.Parts[0].Groups) != len(groups) {
					t.Fatalf("batched request = %d, %+v", rec.Code, a)
				}
				if n := computed() - before; n != 1 {
					t.Fatalf("a batch of %d completely held groups ran %d scans, want 1", len(groups), n)
				}
				got = a.Parts[0].Partial
				if got.Uniform != uniform || len(got.Datasets) != len(s.cfg.ShardDatasetIDs) {
					t.Fatalf("batched partial: uniform=%t, %d datasets", got.Uniform, len(got.Datasets))
				}
				if !reflect.DeepEqual(partialBits(got), partialBits(want)) {
					t.Fatalf("uniform=%t: the batched answer is not one scan of the groups' union, bit for bit", uniform)
				}
			}
			// And the coordinator's Merge cannot tell a batch from its groups.
			opt := spell.Options{UniformWeights: uniform, IncludeQuery: true}
			one, err := spell.Merge([]spell.Partial{*got}, opt)
			if err != nil {
				t.Fatal(err)
			}
			many, err := spell.Merge(singles, opt)
			if err != nil {
				t.Fatal(err)
			}
			oneJSON, _ := json.Marshal(one)
			manyJSON, _ := json.Marshal(many)
			if len(one.Genes) == 0 || !bytes.Equal(oneJSON, manyJSON) {
				t.Fatalf("merged batch:\n%s\nmerged groups:\n%s", oneJSON, manyJSON)
			}
		}
	})

	t.Run("enrich-batch-lists-its-slices", func(t *testing.T) {
		req := shard.EnrichRequest{Selection: genes, Shards: fleet, Replication: 2, Groups: groups}
		rec, a := postShard[shard.EnrichAnswer](t, s, shard.EnrichPath, req)
		if a == nil || len(a.Slices) != len(groups) {
			t.Fatalf("batched enrich = %d, %+v", rec.Code, a)
		}
		for gi := range groups {
			want, err := fixEnricher.PartialAnalyze(spell.CanonicalQuery(genes), gi, len(groups))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Slices[gi], want) {
				t.Fatalf("slice %d of the batch is not PartialAnalyze(%d of %d)", gi, gi, len(groups))
			}
		}
	})

	// What a request may not name, on either endpoint; each refusal must cost
	// no partial (the work is bounded by the catalog, not by the request).
	many := make([][]string, 10000)
	for i := range many {
		many[i] = groups[i%len(groups)]
	}
	for name, tuples := range map[string][][]string{
		"duplicate-tuple": {groups[0], groups[1], groups[0]},
		"foreign-tuple":   {groups[0], {"shard-9", "shard-0"}},
		"empty-tuple":     {groups[0], {}},
		"10000-tuples":    many,
	} {
		t.Run(name, func(t *testing.T) {
			fresh := u.ModuleGeneIDs(4)[:4]
			before := s.Stats().Endpoints["shard"].Computed
			for path, req := range map[string]any{
				shard.SearchPath: shard.SearchRequest{Query: fresh, Shards: fleet, Replication: 2, Groups: tuples},
				shard.EnrichPath: shard.EnrichRequest{Selection: fresh, Shards: fleet, Replication: 2, Groups: tuples},
			} {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(shardBody(t, req))))
				if code, _ := errorEnvelopeOf(t, rec.Body.Bytes()); rec.Code != http.StatusUnprocessableEntity || code != codeUnprocessable {
					t.Fatalf("%s: %d %s, want 422", path, rec.Code, rec.Body.String())
				}
			}
			if after := s.Stats().Endpoints["shard"].Computed; after != before {
				t.Fatalf("a refused request computed %d partials", after-before)
			}
		})
	}
}

// TestShardAnswersOldRequestUnreadably is the other half of the version
// skew: a coordinator from before batching names one group in an Owners
// field of a gob request and reads the answer as a bare partial. A shard of
// this version reads no gob: it refuses the request, and what it answers
// does not decode as what that coordinator expects, so the attempt fails
// instead of a whole slice being merged as one group.
func TestShardAnswersOldRequestUnreadably(t *testing.T) {
	s, u := fixtureShard(t)
	old := struct {
		Query       []string
		Shards      []string
		Replication int
		Owners      []string
	}{u.ModuleGeneIDs(2)[:4], []string{"shard-0", "shard-1"}, 2, []string{"shard-1", "shard-0"}}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(old); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, shard.SearchPath, &body))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("old-style request = %d, want 400: %s", rec.Code, rec.Body.String())
	}
	var bare spell.Partial
	if err := gob.NewDecoder(bytes.NewReader(rec.Body.Bytes())).Decode(&bare); err == nil {
		t.Fatalf("the answer to an old-style request decodes as a bare partial of %d datasets", len(bare.Datasets))
	}
}

// TestGroupViewIsDerivedOncePerTopology: requests naming groups look them up
// in one table per (holdings, shards, replication), derived on first use.
func TestGroupViewIsDerivedOncePerTopology(t *testing.T) {
	s, _ := fixtureShard(t)
	st := s.shardState()
	fleet := []string{"shard-0", "shard-1", "shard-2", "shard-3"}
	v := s.groupView(st, fleet, 2)
	if again := s.groupView(st, append([]string(nil), fleet...), 2); again != v {
		t.Fatal("the same topology derived a second view")
	}
	if other := s.groupView(st, fleet[:3], 2); other == v || s.groupView(st, fleet[:3], 2) != other {
		t.Fatal("another topology did not replace the view")
	}
	for gi, members := range v.table.Members {
		if len(v.held[gi]) != len(members) || !v.holdsAll(gi) {
			t.Fatalf("group %d: the fixture shard holds %d of %d datasets", gi, len(v.held[gi]), len(members))
		}
		if got := shard.GroupIndexes(s.cfg.ShardDatasetIDs, fleet, 2, v.table.Tuples[gi]); !reflect.DeepEqual(got, members) {
			t.Fatalf("group %d: table members %v, GroupIndexes %v", gi, members, got)
		}
	}
}

// TestScatterStatsDiscloseBatching: /api/stats on a coordinator shows, per
// shard, the wire requests next to the ownership groups they carried, and
// how often a search took the uniform second round — and a healthy fleet
// touches none of the fault counters.
func TestScatterStatsDiscloseBatching(t *testing.T) {
	top := newShardTopology(t, 3, shard.Config{Deadline: 2 * time.Second, Replication: 2})
	if rec := get(t, top.coord, searchURL(top.query)); rec.Code != http.StatusOK {
		t.Fatalf("search = %d: %s", rec.Code, rec.Body.String())
	}
	var raw struct {
		Scatter map[string]json.RawMessage `json:"scatter"`
	}
	body := get(t, top.coord, "/api/stats").Body.Bytes()
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if string(raw.Scatter["uniform_rounds"]) != "0" {
		t.Fatalf("scatter.uniform_rounds = %q, want 0", raw.Scatter["uniform_rounds"])
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	var requests, groups int64
	for _, sh := range snap.Scatter.Shards {
		requests, groups = requests+sh.Requests, groups+sh.Groups
		if sh.Failovers+sh.Retries+sh.BreakerSkips+sh.Errors != 0 {
			t.Fatalf("healthy fleet counted a fault on %s: %+v", sh.Addr, sh)
		}
	}
	if snap.Scatter.Groups <= 3 || groups != int64(snap.Scatter.Groups) || requests == 0 || requests > 3 {
		t.Fatalf("one search over %d groups: %d groups in %d requests", snap.Scatter.Groups, groups, requests)
	}
}
