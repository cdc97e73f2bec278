package server

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
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
// The shard role's compute (local) is a pure function of the request and the
// holdings, caching nothing: it answers /api/shard/v1/* on a shard, and is
// the one member of the coordinator every daemon with an engine searches
// through. The LRU of merged answers (cachedScatter) is the only cache.

// localMember is the identity of a daemon's own member in its coordinator.
const localMember = "local"

// local is the shard.Backend of a daemon's own member, and the compute
// behind the shard role's endpoints: answers from the current holdings,
// handed over by pointer with nothing encoded. Gene lists arrive canonical.
type local struct{ s *Server }

// handleShardSearch serves POST /api/shard/v1/search: a shard.SearchRequest
// body in, a shard.SearchAnswer body out — one spell.Partial frame over the
// requested groups' datasets, dataset indexes already remapped to the global
// compendium order. The handler owns the partials' accumulator columns and
// releases them once their frames are written.
func (s *Server) handleShardSearch(w http.ResponseWriter, r *http.Request) {
	serveShardPartial(s, w, r, shard.CapabilitySearch,
		func(req *shard.SearchRequest) *[]string { return &req.Query }, local{s}.Search,
		func(req *shard.SearchRequest, a *shard.SearchAnswer, b []byte) ([]byte, error) {
			defer a.Release()
			// The current engine: after a reload it owns none of the
			// partials' genes, and they are encoded afresh.
			engine := s.shardState().engine
			return a.AppendFrames(b, func(b []byte, p *spell.Partial) ([]byte, error) {
				return engine.AppendPartial(b, p, req.Genes)
			})
		})
}

// handleShardEnrich serves POST /api/shard/v1/enrich: a shard.EnrichRequest
// body in, a shard.EnrichAnswer body out — the integer tallies of the requested groups' background slices. Mounted only on
// shards with an enricher; a capability-less shard 404s, which the
// coordinator reads as "unsupported" and fails over.
func (s *Server) handleShardEnrich(w http.ResponseWriter, r *http.Request) {
	serveShardPartial(s, w, r, shard.CapabilityEnrich,
		func(req *shard.EnrichRequest) *[]string { return &req.Selection }, local{s}.Enrich,
		func(_ *shard.EnrichRequest, a *shard.EnrichAnswer, b []byte) ([]byte, error) {
			return a.AppendBinary(b)
		})
}

// serveShardPartial is the one decode → canonicalize → serve → error-map
// path behind both partial endpoints; kind is the capability name, genes
// points at the request's gene list (canonicalized in place), partial
// computes the answer and encode appends its body for the request.
func serveShardPartial[R, A any, PR interface {
	*R
	UnmarshalBinary([]byte) error
}](s *Server, w http.ResponseWriter, r *http.Request, kind string,
	genes func(*R) *[]string, partial func(context.Context, string, *R) (*A, error), encode func(*R, *A, []byte) ([]byte, error)) {
	if r.Method != http.MethodPost {
		s.writeJSONError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "POST a shard "+kind+" request body")
		return
	}
	var req R
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err == nil {
		err = PR(&req).UnmarshalBinary(body)
	}
	if err != nil {
		s.writeJSONError(w, http.StatusBadRequest, codeBadParameter, "bad shard request: "+err.Error())
		return
	}
	ids := genes(&req)
	if *ids = spell.CanonicalQuery(*ids); len(*ids) == 0 {
		s.writeJSONError(w, http.StatusUnprocessableEntity, codeUnprocessable, "empty "+kind+" gene list")
		return
	}
	answer, err := partial(r.Context(), s.cfg.ShardSelf, &req)
	switch {
	case writeContextError(w, err):
		// 499: the coordinator gave up on us (its deadline, or its own
		// caller hung up).
	case err != nil:
		s.writeJSONError(w, http.StatusUnprocessableEntity, codeUnprocessable, err.Error())
	default:
		s.writeBody(w, "partial "+kind, shard.AnswerContentType, func(b []byte) ([]byte, error) { return encode(&req, answer, b) })
	}
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

// Search serves this shard's answer for a canonical query. A request
// naming no groups (direct probes) scores every held dataset. A request
// scoped to ownership groups of a replicated fleet (DESIGN.md §5) looks
// them up in the topology's group view — the same pure derivation the
// coordinator named them from — and answers the groups it holds completely
// with one frame: one scan over the union of their datasets. A group
// held only in part keeps a scan and a frame to itself, so the coordinator
// can still prefer another replica's complete answer for it.
func (l local) Search(ctx context.Context, _ string, req *shard.SearchRequest) (*shard.SearchAnswer, error) {
	s, ids := l.s, req.Query
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
			answer.Release()
			return nil, err
		}
		answer.Parts = append(answer.Parts, shard.SearchPart{Groups: []int{pos}, Partial: p})
	}
	if len(whole.Groups) > 0 {
		if whole.Partial, err = s.scanPartial(ctx, st, ids, union, req.Uniform); err != nil {
			answer.Release()
			return nil, err
		}
		answer.Parts = append(answer.Parts, whole)
	}
	return &answer, nil
}

// handleShardInfo serves GET /api/shard/v1/info.
func (s *Server) handleShardInfo(w http.ResponseWriter, r *http.Request) {
	info, _ := local{s}.Info(r.Context(), s.cfg.ShardSelf) // holdings always describe themselves
	s.writeBody(w, "info", shard.AnswerContentType, info.AppendBinary)
}

// Info describes the holdings: their size, gene IDs and dataset names, plus
// the full boot catalog coordinators derive ownership groups from, and the
// capability list a mixed-version fleet negotiates with (a shard without an
// ontology simply doesn't list "enrich", and its enrich paths 404).
func (l local) Info(context.Context, string) (*shard.Info, error) {
	s := l.s
	st := s.shardState()
	held := make([]string, len(st.indexes))
	for li, gi := range st.indexes {
		held[li] = s.cfg.ShardDatasetIDs[gi]
	}
	caps := []string{shard.CapabilitySearch}
	if s.cfg.Enricher != nil {
		caps = append(caps, shard.CapabilityEnrich)
	}
	return &shard.Info{
		GeneIDs:       st.engine.GeneIDs(),
		DatasetIDs:    held,
		AllDatasetIDs: s.cfg.ShardDatasetIDs,
		Capabilities:  caps,
		Status:        s.shardStatus(),
	}, nil
}

// writeBody answers a shard-protocol request with what encode appends to a
// pooled buffer. Like writeJSON the body is complete before the status line
// is committed, so an encode failure is a counted 500 naming what, never a
// truncated 200. The Content-Length matters: without one net/http chunks any
// body over 2 KB, and a peer that stops reading before the terminal chunk
// loses its connection (see shard's call).
func (s *Server) writeBody(w http.ResponseWriter, what, contentType string, encode func([]byte) ([]byte, error)) {
	buf := bodyBuffers.Get().(*[]byte)
	defer bodyBuffers.Put(buf)
	b, err := encode((*buf)[:0])
	if err != nil {
		s.encodeFailures.Add(1)
		s.writeJSONError(w, http.StatusInternalServerError, codeEncodeFailed, what+" encode failed: "+err.Error())
		return
	}
	*buf = b
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	_, _ = w.Write(b)
}

// bodyBuffers recycles writeBody's buffer. A search answer is one ≈96 KB
// frame at paper scale, encoded per request; grown from empty each time,
// the buffer would be most of what a scattered search allocates.
var bodyBuffers = sync.Pool{New: func() any { return new([]byte) }}

// Enrich serves the slice tallies for one canonical selection: one
// per requested ownership group, slice gi of G for the group at position gi
// of the topology's G groups — the same pure derivation the coordinator
// used, so both sides always agree on which gene range a slice covers. A
// request naming no groups asks for the whole universe as slice 0 of 1 (a
// single-shard or testing topology). statShard.computed counts the slices.
func (l local) Enrich(ctx context.Context, _ string, req *shard.EnrichRequest) (*shard.EnrichAnswer, error) {
	s, gis, n := l.s, []int{0}, 1
	if s.cfg.Enricher == nil {
		return nil, shard.ErrUnsupported
	}
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
		p, err := s.cfg.Enricher.PartialAnalyzeCtx(ctx, req.Selection, gi, n)
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
	s.writeBody(w, "catalog", shard.AnswerContentType, func(b []byte) ([]byte, error) {
		return s.cfg.Enricher.Catalog().AppendBinary(b)
	})
}

// EnrichCatalog is the enricher's term catalog.
func (l local) EnrichCatalog(context.Context, string) (*golem.TermCatalog, error) {
	if l.s.cfg.Enricher == nil {
		return nil, shard.ErrUnsupported
	}
	return l.s.cfg.Enricher.Catalog(), nil
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
	m := s.coord.Membership()
	state := func(shards []string, gen uint64) fleetState {
		return fleetState{
			Shards:      shards,
			Generation:  fmt.Sprintf("%016x", gen),
			Replication: s.coord.Replication(),
			Bumps:       m.Bumps(),
			Draining:    s.coord.DrainingShards(),
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
				s.coord.SetDraining(req.Shard, false)
			}
		case "drain", "undrain":
			// Demote (or restore) a member in replica ordering without a
			// membership change: no generation bump, caches stay valid, the
			// shard just stops being anyone's first choice.
			s.coord.SetDraining(req.Shard, req.Action == "drain")
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
