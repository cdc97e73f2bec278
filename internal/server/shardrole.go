package server

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"forestview/internal/golem"
	"forestview/internal/shard"
	"forestview/internal/spell"
)

// This file is the daemon's side of the sharded compendium (DESIGN.md §4):
// the shard role serves spell partials for its dataset slice at
// /api/shard/search, and the coordinator role scatters /api/search over
// the shard backends, merging with global weight renormalization. Both
// directions run through the same sharded LRU + singleflight discipline
// as every other endpoint.

// handleShardSearch serves POST /api/shard/v1/search: a gob
// shard.SearchRequest in, a gob-enveloped spell.Partial frame out — dataset
// indexes already remapped to the global compendium order. Partials are
// cached under the canonical query ("partial" prefix): identical queries
// from one or many coordinators scan each dataset slice once.
func (s *Server) handleShardSearch(w http.ResponseWriter, r *http.Request) {
	serveShardPartial(s, w, r, shard.CapabilitySearch,
		func(req *shard.SearchRequest) []string { return req.Query }, s.partialSearch)
}

// handleShardEnrich serves POST /api/shard/v1/enrich: a gob
// shard.EnrichRequest in, a gob golem.PartialCounts out — the integer
// tallies of this request's background slice. Mounted only on shards with
// an enricher; a capability-less shard 404s, which the coordinator reads
// as "unsupported" and fails over.
func (s *Server) handleShardEnrich(w http.ResponseWriter, r *http.Request) {
	serveShardPartial(s, w, r, shard.CapabilityEnrich,
		func(req *shard.EnrichRequest) []string { return req.Selection }, s.partialEnrich)
}

// serveShardPartial is the one decode → canonicalize → warm-touch → serve
// → error-map path behind both partial endpoints; kind is the capability
// name, genes picks the request's gene list, and partial computes (or
// serves cached) the gob-encoded answer.
func serveShardPartial[R any](s *Server, w http.ResponseWriter, r *http.Request, kind string,
	genes func(*R) []string, partial func(context.Context, []string, *R) ([]byte, string, error)) {
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
	s.warm.touch(kind, ids)
	body, disp, err := partial(r.Context(), ids, &req)
	switch {
	case s.writeContextError(w, r, &s.statShard, err, "partial "+kind):
		// 499: the coordinator gave up on us (deadline, hedge won elsewhere,
		// or its own caller hung up).
	case errors.Is(err, errPartialEncode):
		s.encodeFailures.Add(1)
		s.writeJSONError(w, http.StatusInternalServerError, codeEncodeFailed, err.Error())
	case err != nil:
		s.writeJSONError(w, http.StatusUnprocessableEntity, codeUnprocessable, err.Error())
	default:
		w.Header().Set(cacheHeader, disp)
		writeGobBody(w, body)
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

// errPartialEncode marks a gob failure while encoding a partial — a bug,
// reported as a counted 500 like every other encode failure.
var errPartialEncode = errors.New("partial encode failed")

// cachedPartial computes (or serves cached) one shard partial, already
// gob-encoded (a spell.Partial as its own binary frame inside the gob
// envelope): the wire form is what every consumer of the cache wants, so a
// cache hit costs zero re-encoding and the entry's cost is its exact byte
// length — the body is copied out of the encode buffer at that length, so
// the cache never holds growth slack the LRU did not charge for.
func cachedPartial[P any](ctx context.Context, s *Server, key string, compute func() (P, error)) ([]byte, string, error) {
	return cachedCompute(ctx, s, &s.statShard, key, wireCost, nil, func() ([]byte, error) {
		p, err := compute()
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(p); err != nil {
			return nil, fmt.Errorf("%w: %v", errPartialEncode, err)
		}
		body := make([]byte, buf.Len())
		copy(body, buf.Bytes())
		return body, nil
	})
}

// searchPartialKey is the cache key of one search partial. The handoff
// receiver (drain.go) inserts pushed bodies under this exact key, so it
// must stay in lockstep with partialSearch. A group-scoped key carries the
// topology generation, the replication factor and the owner tuple: a
// membership change re-derives groups, and stale group partials become
// unreachable rather than wrong.
func searchPartialKey(req *shard.SearchRequest, ids []string) string {
	if len(req.Owners) == 0 {
		return "partial\x1f" + joinIDs(ids)
	}
	return fmt.Sprintf("partial\x1f%016x\x1f%d\x1f%s\x1f%s",
		shard.Generation(req.Shards), req.Replication, joinIDs(req.Owners), joinIDs(ids))
}

// partialSearch serves this shard's partial for a canonical query. An
// ownerless request (single-owner fleets and direct probes) scores every
// held dataset. A request scoped to one ownership group of a replicated
// fleet (DESIGN.md §5) recomputes the group from its (shards, replication,
// owners) — the same pure function the coordinator derived it from — and
// scores only the datasets this shard holds from that group, so no two
// replicas can both claim a dataset in one merge.
func (s *Server) partialSearch(ctx context.Context, ids []string, req *shard.SearchRequest) ([]byte, string, error) {
	st := s.shardState()
	return cachedPartial(ctx, s, searchPartialKey(req, ids), func() (*spell.Partial, error) {
		var subset []int // nil: every held dataset
		if len(req.Owners) > 0 {
			subset = []int{} // non-nil: an empty intersection is a valid empty partial
			for _, gi := range shard.GroupIndexes(s.cfg.ShardDatasetIDs, req.Shards, req.Replication, req.Owners) {
				if li, ok := st.local[gi]; ok {
					subset = append(subset, li)
				}
			}
		}
		p, err := st.engine.PartialSearchSubsetCtx(ctx, ids, subset, spell.Options{Parallelism: s.cfg.SearchParallelism})
		if err != nil {
			return nil, err
		}
		// Remap local dataset indexes to the global compendium order once,
		// at compute time: cached partials are already global.
		for i := range p.Datasets {
			p.Datasets[i].Index = st.indexes[p.Datasets[i].Index]
		}
		return p, nil
	})
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
		Datasets:      st.engine.NumDatasets(),
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
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		s.encodeFailures.Add(1)
		s.writeJSONError(w, http.StatusInternalServerError, codeEncodeFailed, what+" encode failed: "+err.Error())
		return
	}
	writeGobBody(w, buf.Bytes())
}

// groupEnrichKey is the cache key of one background slice's tallies, kept
// in lockstep with partialEnrich for the handoff receiver's inserts. It
// carries the topology generation, replication factor and owner tuple:
// after a membership change the group list re-derives and stale slice
// tallies become unreachable rather than wrong.
func groupEnrichKey(req *shard.EnrichRequest, sel []string) string {
	return fmt.Sprintf("epartial\x1f%016x\x1f%d\x1f%s\x1f%s",
		shard.Generation(req.Shards), req.Replication, joinIDs(req.Owners), joinIDs(sel))
}

// partialEnrich serves the slice tallies for one canonical selection. The
// slice index is re-derived from the request's (shards, replication,
// owners) through the same pure Groups function the coordinator used, so
// both sides always agree on which gene range slice gi covers.
func (s *Server) partialEnrich(ctx context.Context, sel []string, req *shard.EnrichRequest) ([]byte, string, error) {
	return cachedPartial(ctx, s, groupEnrichKey(req, sel), func() (*golem.PartialCounts, error) {
		// An ownerless request asks for the whole universe as slice 0 of 1
		// (a single-shard or testing topology).
		gi, slices := 0, 1
		if len(req.Owners) > 0 {
			groups := shard.Groups(s.cfg.ShardDatasetIDs, req.Shards, req.Replication)
			gi = shard.GroupIndex(groups, req.Owners)
			if gi < 0 {
				return nil, fmt.Errorf("owner tuple %v is not an ownership group of this catalog", req.Owners)
			}
			slices = len(groups)
		}
		return s.cfg.Enricher.PartialAnalyzeCtx(ctx, sel, gi, slices)
	})
}

// handleShardEnrichCatalog serves GET /api/shard/v1/enrich/catalog: the
// term catalog (fingerprint, background size, term ids/names) a
// coordinator merges partial tallies under. Fetched once per membership
// generation, so no caching is needed here.
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
// endpoint, a shard's drain/handoff/fleet endpoints) behind the fleet token
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
