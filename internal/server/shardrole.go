package server

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"forestview/internal/golem"
	"forestview/internal/shard"
	"forestview/internal/spell"
)

// This file is the daemon's side of the sharded compendium (DESIGN.md §4).
// The shard role answers /api/shard/v1/* as a pure function of the request
// and its holdings: one scan (or one tally per slice) per request, nothing
// cached, nothing coalesced. The coordinator role scatters /api/search and
// /api/enrich over the shard backends and merges with global weight
// renormalization; its LRU of merged results (cachedScatter) is the fleet's
// only cache.

// handleShardSearch serves POST /api/shard/v1/search: a gob
// shard.SearchRequest in, a gob shard.SearchAnswer out — one spell.Partial
// frame over the requested groups' datasets, dataset indexes already remapped
// to the global compendium order.
func (s *Server) handleShardSearch(w http.ResponseWriter, r *http.Request) {
	serveShardPartial(s, w, r, shard.CapabilitySearch,
		func(req *shard.SearchRequest) []string { return req.Query }, s.partialSearch)
}

// handleShardEnrich serves POST /api/shard/v1/enrich: a gob
// shard.EnrichRequest in, a gob shard.EnrichAnswer out — the integer
// tallies of the requested groups' background slices. Mounted only on
// shards with an enricher; a capability-less shard 404s, which the
// coordinator reads as "unsupported" and fails over.
func (s *Server) handleShardEnrich(w http.ResponseWriter, r *http.Request) {
	serveShardPartial(s, w, r, shard.CapabilityEnrich,
		func(req *shard.EnrichRequest) []string { return req.Selection }, s.partialEnrich)
}

// serveShardPartial is the one decode → canonicalize → serve → error-map
// path behind both partial endpoints; kind is the capability name, genes
// picks the request's gene list, and partial computes the answer.
func serveShardPartial[R, A any](s *Server, w http.ResponseWriter, r *http.Request, kind string,
	genes func(*R) []string, partial func(context.Context, []string, *R) (*A, error)) {
	if r.Method != http.MethodPost {
		s.writeJSONError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "POST a gob-encoded shard "+kind+" request")
		return
	}
	var req R
	if err := gob.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		s.writeJSONError(w, http.StatusBadRequest, codeBadParameter, "bad shard request: "+err.Error())
		return
	}
	ids := spell.CanonicalQuery(genes(&req))
	if len(ids) == 0 {
		s.writeJSONError(w, http.StatusUnprocessableEntity, codeUnprocessable, "empty "+kind+" gene list")
		return
	}
	answer, err := partial(r.Context(), ids, &req)
	switch {
	case s.writeContextError(w, r, &s.statShard, err, "partial "+kind):
		// 499: the coordinator gave up on us (deadline, hedge won elsewhere,
		// or its own caller hung up).
	case err != nil:
		s.writeJSONError(w, http.StatusUnprocessableEntity, codeUnprocessable, err.Error())
	default:
		s.writeGob(w, "partial "+kind, answer)
	}
}

// writeGobBody sends an encoded shard-protocol body with its Content-Length.
// Without one net/http chunks any body over 2 KB; the peer's gob decoder
// stops at the end of the message, before the terminal chunk, and a response
// closed short of EOF takes its connection with it (see shard's call).
func writeGobBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", shard.ContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// groupView is this shard's side of one fleet topology: the catalog's
// ownership groups under (shards, replication) and what the shard holds of
// each. Requests name groups by owner tuple, so serving one is a map lookup
// per tuple instead of a rendezvous ranking of the whole catalog per tuple.
// A fleet speaks one topology at a time (two across a membership change),
// so the server keeps the view last asked for and derives another when a
// request names a different one.
type groupView struct {
	st     *shardState // the holdings the view was derived against
	shards []string
	repl   int
	table  *shard.GroupTable
	// held[gi] are the engine-local indexes of the datasets of group gi this
	// shard holds.
	held [][]int
}

// holdsAll reports whether the shard holds every dataset of group gi.
func (v *groupView) holdsAll(gi int) bool { return len(v.held[gi]) == len(v.table.Members[gi]) }

func (s *Server) groupView(st *shardState, shards []string, repl int) *groupView {
	if v := s.groupVw.Load(); v != nil && v.st == st && v.repl == repl && slices.Equal(v.shards, shards) {
		return v
	}
	v := &groupView{
		st: st, shards: slices.Clone(shards), repl: repl,
		table: shard.NewGroupTable(s.cfg.ShardDatasetIDs, shards, repl),
	}
	v.held = make([][]int, len(v.table.Tuples))
	for gi, members := range v.table.Members {
		v.held[gi] = []int{} // non-nil: holding nothing of a group is a valid empty partial
		for _, di := range members {
			if li, ok := st.local[di]; ok {
				v.held[gi] = append(v.held[gi], li)
			}
		}
	}
	s.groupVw.Store(v)
	return v
}

// resolve looks a request's owner tuples up. A tuple that is not a group of
// the catalog under this topology is a client error, and so is one named
// twice: its datasets would be scanned twice.
func (v *groupView) resolve(tuples [][]string) ([]int, error) {
	if len(tuples) > len(v.table.Tuples) {
		return nil, fmt.Errorf("request names %d ownership groups, the catalog has %d", len(tuples), len(v.table.Tuples))
	}
	gis := make([]int, len(tuples))
	seen := make([]bool, len(v.table.Tuples))
	for i, owners := range tuples {
		gi, ok := v.table.Lookup(owners)
		if !ok {
			return nil, fmt.Errorf("owner tuple %v is not an ownership group of this catalog", owners)
		}
		if seen[gi] {
			return nil, fmt.Errorf("owner tuple %v named twice", owners)
		}
		seen[gi] = true
		gis[i] = gi
	}
	return gis, nil
}

// scanPartial is the shard's one unit of search work: the partial of one
// subset of its datasets (nil: everything held), dataset indexes remapped to
// the global compendium order. statShard.computed counts these.
func (s *Server) scanPartial(ctx context.Context, st *shardState, ids []string, subset []int, uniform bool) (*spell.Partial, error) {
	s.statShard.computed.Add(1)
	p, err := st.engine.PartialSearchSubsetCtx(ctx, ids, subset, spell.Options{UniformWeights: uniform})
	if err != nil {
		return nil, err
	}
	for i := range p.Datasets {
		p.Datasets[i].Index = st.indexes[p.Datasets[i].Index]
	}
	return p, nil
}

// partialSearch serves this shard's answer for a canonical query. A request
// naming no groups (direct probes) scores every held dataset. A request
// scoped to ownership groups of a replicated fleet (DESIGN.md §5) looks
// them up in the topology's group view — the same pure derivation the
// coordinator named them from — and answers the groups it holds completely
// with one frame: one scan over the union of their datasets, ascending, so
// the frame does not depend on the order the groups were named in. A group
// held only in part keeps a scan and a frame to itself, so the coordinator
// can still prefer another replica's complete answer for it.
func (s *Server) partialSearch(ctx context.Context, ids []string, req *shard.SearchRequest) (*shard.SearchAnswer, error) {
	st := s.shardState()
	if len(req.Groups) == 0 {
		p, err := s.scanPartial(ctx, st, ids, nil, req.Uniform)
		if err != nil {
			return nil, err
		}
		return &shard.SearchAnswer{Parts: []shard.SearchPart{{Partial: p}}}, nil
	}
	v := s.groupView(st, req.Shards, req.Replication)
	gis, err := v.resolve(req.Groups)
	if err != nil {
		return nil, err
	}
	var (
		answer shard.SearchAnswer
		whole  = shard.SearchPart{Groups: make([]int, 0, len(gis))}
		union  []int
	)
	for pos, gi := range gis {
		if v.holdsAll(gi) {
			whole.Groups, union = append(whole.Groups, pos), append(union, v.held[gi]...)
			continue
		}
		p, err := s.scanPartial(ctx, st, ids, v.held[gi], req.Uniform)
		if err != nil {
			return nil, err
		}
		answer.Parts = append(answer.Parts, shard.SearchPart{Groups: []int{pos}, Partial: p})
	}
	if len(whole.Groups) > 0 {
		slices.Sort(union)
		if whole.Partial, err = s.scanPartial(ctx, st, ids, union, req.Uniform); err != nil {
			return nil, err
		}
		answer.Parts = append(answer.Parts, whole)
	}
	return &answer, nil
}

// handleShardInfo serves GET /api/shard/v1/info: this shard's slice (size,
// gene IDs, held dataset names) plus the full boot catalog coordinators
// derive ownership groups from, and the capability list a mixed-version
// fleet negotiates with (a shard without an ontology simply doesn't list
// "enrich", and its enrich paths 404).
func (s *Server) handleShardInfo(w http.ResponseWriter, r *http.Request) {
	st := s.shardState()
	held := make([]string, len(st.indexes))
	for li, gi := range st.indexes {
		held[li] = s.cfg.ShardDatasetIDs[gi]
	}
	caps := []string{shard.CapabilitySearch}
	if s.cfg.Enricher != nil {
		caps = append(caps, shard.CapabilityEnrich)
	}
	s.writeGob(w, "info", shard.Info{
		GeneIDs:       st.engine.GeneIDs(),
		DatasetIDs:    held,
		AllDatasetIDs: s.cfg.ShardDatasetIDs,
		Capabilities:  caps,
		Status:        s.shardStatus(),
	})
}

// writeGob answers a shard-protocol request with gob-encoded v. Like
// writeJSON the body is encoded before the status line is committed, so an
// encode failure is a counted 500 naming what, never a truncated 200.
func (s *Server) writeGob(w http.ResponseWriter, what string, v any) {
	buf := gobBuffers.Get().(*bytes.Buffer)
	defer gobBuffers.Put(buf)
	buf.Reset()
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		s.encodeFailures.Add(1)
		s.writeJSONError(w, http.StatusInternalServerError, codeEncodeFailed, what+" encode failed: "+err.Error())
		return
	}
	writeGobBody(w, buf.Bytes())
}

// gobBuffers recycles writeGob's encode buffer. A search answer is one
// ≈185 KB frame at paper scale, encoded per request; grown from empty each
// time, the buffer alone was a ninth of what a scattered search allocated
// fleet-wide.
var gobBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// partialEnrich serves the slice tallies for one canonical selection: one
// per requested ownership group, slice gi of G for the group at position gi
// of the topology's G groups — the same pure derivation the coordinator
// used, so both sides always agree on which gene range a slice covers. A
// request naming no groups asks for the whole universe as slice 0 of 1 (a
// single-shard or testing topology). statShard.computed counts the slices.
func (s *Server) partialEnrich(ctx context.Context, sel []string, req *shard.EnrichRequest) (*shard.EnrichAnswer, error) {
	gis, n := []int{0}, 1
	if len(req.Groups) > 0 {
		v := s.groupView(s.shardState(), req.Shards, req.Replication)
		var err error
		if gis, err = v.resolve(req.Groups); err != nil {
			return nil, err
		}
		n = len(v.table.Tuples)
	}
	answer := &shard.EnrichAnswer{Slices: make([]*golem.PartialCounts, len(gis))}
	for pos, gi := range gis {
		s.statShard.computed.Add(1)
		p, err := s.cfg.Enricher.PartialAnalyzeCtx(ctx, sel, gi, n)
		if err != nil {
			return nil, err
		}
		answer.Slices[pos] = p
	}
	return answer, nil
}

// handleShardEnrichCatalog serves GET /api/shard/v1/enrich/catalog: the
// term catalog (fingerprint, background size, term ids/names) a
// coordinator merges partial tallies under. Fetched once per membership
// generation.
func (s *Server) handleShardEnrichCatalog(w http.ResponseWriter, r *http.Request) {
	s.writeGob(w, "catalog", s.cfg.Enricher.Catalog())
}

// scattered is the cached unit of a coordinator path: the merged value plus
// the scatter metadata it was merged under.
type scattered[T any] struct {
	res  T
	meta shard.Meta
}

// cachedScatter is the coordinator's compute path, shared by search and
// enrichment: run one scatter under key, and cache the merged value with
// its metadata. key carries the shard-set generation, so a coordinator
// restarted against a different topology can never replay merges of the old
// one. Degraded merges (a group unserved) are delivered but never cached:
// cached, they would keep answering for the survivor subset long after the
// shard recovered. Coalescing still holds — concurrent identical queries
// scatter once.
func cachedScatter[T any](ctx context.Context, s *Server, ep *endpointStats, key string,
	cost func(T) int64, scatter func() (T, shard.Meta, error)) (T, *shard.Meta, string, error) {
	sv, disp, err := cachedCompute(ctx, s, ep, key,
		func(v scattered[T]) int64 { return cost(v.res) + 64 },
		func(v scattered[T]) bool { return !v.meta.Degraded },
		func() (scattered[T], error) {
			res, meta, err := scatter()
			return scattered[T]{res: res, meta: meta}, err
		})
	if err != nil {
		return sv.res, nil, disp, err
	}
	return sv.res, &sv.meta, disp, nil
}

// scatterSearch is searchWith's coordinator branch: scatter over the shard
// backends and merge with global renormalization, cached under the
// result-shaping options and the canonical query.
func (s *Server) scatterSearch(ctx context.Context, ep *endpointStats, ids []string, opt spell.Options) (*spell.Result, *shard.Meta, string, error) {
	key := fmt.Sprintf("scatter\x1f%016x\x1f%d\x1f%t\x1f%t\x1f%s",
		s.cfg.Scatter.Generation(), opt.MaxGenes, opt.IncludeQuery, opt.UniformWeights, joinIDs(ids))
	return cachedScatter(ctx, s, ep, key, searchCost, func() (*spell.Result, shard.Meta, error) {
		return s.cfg.Scatter.SearchCtx(ctx, ids, opt)
	})
}

// scatterSearchResponse is the /api/search body in coordinator mode: the
// usual result plus the explicit degraded flag and shard tally.
type scatterSearchResponse struct {
	*spell.Result
	shard.Meta
}

// enrichScatterCost approximates the resident size of a cached merged
// enrichment: the table and the selection's membership disclosure.
func enrichScatterCost(res *shard.EnrichResult) int64 {
	n := int64(192)
	for _, r := range res.Results {
		n += int64(len(r.TermID)+len(r.TermName)) + 96
	}
	for g := range res.InBackground {
		n += int64(len(g)) + 24
	}
	return n
}

// scatterEnrich is handleEnrich's coordinator compute path: scatter the
// canonical selection over the fleet's background slices and merge the
// exact tallies, cached under the result-shaping options and the selection.
func (s *Server) scatterEnrich(ctx context.Context, sel []string, opt golem.Options) (*shard.EnrichResult, *shard.Meta, string, error) {
	key := fmt.Sprintf("escatter\x1f%016x\x1f%d\x1f%g\x1f%s",
		s.cfg.Scatter.Generation(), opt.MinSelected, opt.MaxPValue, joinIDs(sel))
	return cachedScatter(ctx, s, &s.statEnrich, key, enrichScatterCost, func() (*shard.EnrichResult, shard.Meta, error) {
		return s.cfg.Scatter.EnrichCtx(ctx, sel, opt)
	})
}

// fleetState is the /api/admin/fleet body: the live membership and the
// topology identity a client needs to reason about it.
type fleetState struct {
	Shards      []string `json:"shards"`
	Generation  string   `json:"generation"`
	Replication int      `json:"replication"`
	Bumps       int64    `json:"membership_bumps"`
	Draining    []string `json:"draining,omitempty"`
}

// fleetRequest is the POST /api/admin/fleet body.
type fleetRequest struct {
	Action string `json:"action"` // "add", "remove", "drain" or "undrain"
	Shard  string `json:"shard"`
}

// fleetAdmin gates a fleet admin handler (the coordinator's membership
// endpoint, a shard's drain and fleet endpoints) behind the fleet token
// (Authorization: Bearer or X-Fleet-Token), compared in constant time. An
// empty configured token refuses everything: membership mutation is
// opt-in, never open by default.
func (s *Server) fleetAdmin(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tok := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
		if tok == "" || tok == r.Header.Get("Authorization") {
			tok = r.Header.Get("X-Fleet-Token")
		}
		if s.cfg.FleetToken == "" || subtle.ConstantTimeCompare([]byte(tok), []byte(s.cfg.FleetToken)) != 1 {
			s.writeJSONError(w, http.StatusForbidden, codeForbidden, "fleet admin token required")
			return
		}
		h(w, r)
	}
}

// handleFleet serves /api/admin/fleet on a coordinator: GET reports the
// live membership, POST {"action":"add"|"remove","shard":"..."} mutates
// it at runtime. A successful mutation bumps the membership generation,
// which re-derives ownership groups on the next scatter and invalidates
// every topology-keyed cache entry; a removed shard stops receiving
// scatters immediately and can drain out through its SIGTERM handler.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	m := s.cfg.Scatter.Membership()
	state := func(shards []string, gen uint64) fleetState {
		return fleetState{
			Shards:      shards,
			Generation:  fmt.Sprintf("%016x", gen),
			Replication: s.cfg.Scatter.Replication(),
			Bumps:       m.Bumps(),
			Draining:    s.cfg.Scatter.DrainingShards(),
		}
	}
	switch r.Method {
	case http.MethodGet:
		shards, gen := m.Snapshot()
		s.writeJSON(w, http.StatusOK, state(shards, gen))
	case http.MethodPost:
		var req fleetRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
			s.writeJSONError(w, http.StatusBadRequest, codeBadParameter, "bad fleet request: "+err.Error())
			return
		}
		var (
			shards []string
			gen    uint64
			err    error
		)
		switch req.Action {
		case "add":
			shards, gen, err = m.Add(req.Shard)
		case "remove":
			// Removal also clears any drain mark: the identity may return
			// later as a fresh, healthy member.
			shards, gen, err = m.Remove(req.Shard)
			if err == nil {
				s.cfg.Scatter.SetDraining(req.Shard, false)
			}
		case "drain", "undrain":
			// Demote (or restore) a member in replica ordering without a
			// membership change: no generation bump, caches stay valid, the
			// shard just stops being anyone's first choice.
			s.cfg.Scatter.SetDraining(req.Shard, req.Action == "drain")
			shards, gen = m.Snapshot()
		default:
			s.writeJSONError(w, http.StatusBadRequest, codeBadParameter, `action must be "add", "remove", "drain" or "undrain"`)
			return
		}
		if err != nil {
			s.writeJSONError(w, http.StatusUnprocessableEntity, codeUnprocessable, err.Error())
			return
		}
		s.writeJSON(w, http.StatusOK, state(shards, gen))
	default:
		s.writeJSONError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "GET the fleet state or POST a membership change")
	}
}
