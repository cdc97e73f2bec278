package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"

	"forestview/internal/microarray"
	"forestview/internal/shard"
	"forestview/internal/spell"
)

// This file is the shard role's planned-maintenance side (DESIGN.md §7):
// the reloadable membership view behind /api/shard/v1/admin/fleet and the
// token-gated drain at /api/shard/v1/admin/drain. A rolling restart is a
// zero-degradation event because of its order: the survivors take ownership
// (reload) before the leaver drains, and a drain only advertises and exits.
// A shard never dials another shard; what a successor is first asked after a
// drain it computes, as it computes any query it has not seen.

// shardState is what a daemon's own member computes on: the engine over
// the held datasets, the global-index maps, the raw datasets the engine was
// built from (nil disables reload), and the membership list the holdings
// were last derived from. On a shard it is reloadable, swapped atomically by
// reloadShard; handlers read one consistent state per request.
type shardState struct {
	engine  *spell.Engine
	indexes []int       // engine local index -> global catalog index
	local   map[int]int // global catalog index -> engine local index
	raw     []*microarray.Dataset
	shards  []string // this shard's view of the fleet (nil: boot-time only)
	repl    int
	gen     uint64
}

func (s *Server) shardState() *shardState { return s.shardSt.Load() }

// newShardState validates the engine and shard fields of cfg and returns
// the boot holdings: the shard role's slice or — a single daemon — the
// whole engine, whose dataset names become the catalog
// (cfg.ShardDatasetIDs) with each dataset at its own index. A coordinator
// that holds no data has none.
func newShardState(cfg *Config) (*shardState, error) {
	switch {
	case cfg.Engine == nil && cfg.ShardIndexes != nil:
		return nil, fmt.Errorf("server: shard role requires an engine")
	case cfg.Engine == nil && cfg.Scatter != nil:
		return nil, nil // a coordinator holds no data
	case cfg.Engine == nil:
		return nil, fmt.Errorf("server: nil SPELL engine (and no shard coordinator)")
	case cfg.ShardIndexes == nil: // a single daemon: nothing more to check
	case len(cfg.ShardIndexes) != cfg.Engine.NumDatasets():
		return nil, fmt.Errorf("server: %d shard indexes for %d datasets", len(cfg.ShardIndexes), cfg.Engine.NumDatasets())
	case len(cfg.ShardDatasetIDs) == 0:
		return nil, fmt.Errorf("server: shard role requires the global dataset catalog (ShardDatasetIDs)")
	case len(cfg.ShardRawDatasets) != 0 && len(cfg.ShardRawDatasets) != len(cfg.ShardIndexes):
		return nil, fmt.Errorf("server: %d raw shard datasets for %d shard indexes", len(cfg.ShardRawDatasets), len(cfg.ShardIndexes))
	}
	for i, gi := range cfg.ShardIndexes {
		if gi < 0 || gi >= len(cfg.ShardDatasetIDs) {
			return nil, fmt.Errorf("server: shard index %d of dataset %d outside the %d-dataset catalog", gi, i, len(cfg.ShardDatasetIDs))
		}
	}
	st := &shardState{engine: cfg.Engine, indexes: slices.Clone(cfg.ShardIndexes), raw: cfg.ShardRawDatasets, repl: max(cfg.ShardReplication, 1)}
	if st.indexes == nil {
		cfg.ShardDatasetIDs = cfg.Engine.DatasetNames()
		for i := range cfg.ShardDatasetIDs {
			st.indexes = append(st.indexes, i)
		}
	}
	st.local = make(map[int]int, len(st.indexes))
	for li, gi := range st.indexes {
		st.local[gi] = li
	}
	if len(cfg.ShardFleet) > 0 {
		fleet, err := shard.NewMembership(cfg.ShardFleet)
		if err != nil {
			return nil, fmt.Errorf("server: shard fleet view: %w", err)
		}
		st.shards, st.gen = fleet.Snapshot()
	}
	cfg.ShardSelf = strings.TrimRight(strings.TrimSpace(cfg.ShardSelf), "/")
	return st, nil
}

// shardFleetRequest is the POST /api/shard/v1/admin/fleet body: the
// authoritative post-change fleet list, and optionally a new replication
// factor (0 keeps the current one).
type shardFleetRequest struct {
	Shards      []string `json:"shards"`
	Replication int      `json:"replication"`
}

// shardFleetState is the GET/POST response body.
type shardFleetState struct {
	Self        string   `json:"self"`
	Shards      []string `json:"shards"`
	Generation  string   `json:"generation"`
	Replication int      `json:"replication"`
	Held        int      `json:"held"`
	Loaded      int      `json:"loaded,omitempty"` // datasets loaded by this reload
	Status      string   `json:"status"`
	Reloads     int64    `json:"reloads"`
}

func (s *Server) shardStatus() string {
	if s.draining.Load() {
		return shard.StatusDraining
	}
	return shard.StatusActive
}

// handleShardFleet serves the shard-side membership view: GET reports it,
// POST replaces it wholesale and re-derives the owned top-R slice — the
// shard loads any newly owned datasets (ShardLoader), rebuilds its engine
// over the union, and swaps state atomically. Holdings only grow: data a
// reload no longer assigns here keeps being served (the coordinator's
// scavenge pass and old-generation requests lean on exactly that), and a
// restart is the way to shed it.
func (s *Server) handleShardFleet(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		st := s.shardState()
		s.writeJSON(w, http.StatusOK, s.fleetStateOf(st, 0))
	case http.MethodPost:
		var req shardFleetRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
			s.writeJSONError(w, http.StatusBadRequest, codeBadParameter, "bad fleet request: "+err.Error())
			return
		}
		st, loaded, err := s.reloadShard(r.Context(), req.Shards, req.Replication)
		if err != nil {
			s.writeJSONError(w, http.StatusUnprocessableEntity, codeUnprocessable, err.Error())
			return
		}
		s.writeJSON(w, http.StatusOK, s.fleetStateOf(st, loaded))
	default:
		s.writeJSONError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "GET the shard fleet view or POST a replacement list")
	}
}

func (s *Server) fleetStateOf(st *shardState, loaded int) shardFleetState {
	return shardFleetState{
		Self:        s.cfg.ShardSelf,
		Shards:      st.shards,
		Generation:  fmt.Sprintf("%016x", st.gen),
		Replication: st.repl,
		Held:        len(st.indexes),
		Loaded:      loaded,
		Status:      s.shardStatus(),
		Reloads:     s.shardReloads.Load(),
	}
}

// reloadShard applies a new membership view: re-derive the owned top-R
// slice, load what is newly owned, rebuild the engine over the union of
// old and new holdings, and swap. The view the shard already has is a no-op:
// the current state comes back as it is, the ownership-group view derived
// from it with it. A reload that fails (a bad list, a loader error) leaves
// the state untouched. Reloads are serialized under shardMu.
func (s *Server) reloadShard(ctx context.Context, shards []string, repl int) (*shardState, int, error) {
	s.shardMu.Lock()
	defer s.shardMu.Unlock()
	st := s.shardState()
	if st.shards == nil {
		return nil, 0, fmt.Errorf("shard booted without a fleet view (-self/-shards); membership reload unavailable")
	}
	m, err := shard.NewMembership(shards)
	if err != nil {
		return nil, 0, err
	}
	normalized, gen := m.Snapshot()
	if repl <= 0 {
		repl = st.repl
	}
	if repl > len(normalized) {
		repl = len(normalized)
	}
	if repl == st.repl && slices.Equal(normalized, st.shards) {
		return st, 0, nil
	}
	if err := shard.CheckPlacement(s.cfg.ShardDatasetIDs, normalized, repl); err != nil {
		return nil, 0, err
	}

	// The owned set under the new view; empty when this shard is not in the
	// list (a leaver keeps serving its holdings until it exits).
	var owned []int
	if slices.Contains(normalized, s.cfg.ShardSelf) {
		owned = shard.OwnedIndexesR(s.cfg.ShardDatasetIDs, normalized, s.cfg.ShardSelf, repl)
	}
	var missing []int
	for _, gi := range owned {
		if _, ok := st.local[gi]; !ok {
			missing = append(missing, gi)
		}
	}

	next := &shardState{
		engine:  st.engine,
		indexes: st.indexes,
		local:   st.local,
		raw:     st.raw,
		shards:  normalized,
		repl:    repl,
		gen:     gen,
	}
	if len(missing) > 0 {
		if st.raw == nil {
			return nil, 0, fmt.Errorf("reload assigns %d new datasets but the shard retained no raw datasets to rebuild from", len(missing))
		}
		if s.cfg.ShardLoader == nil {
			return nil, 0, fmt.Errorf("reload assigns %d new datasets but no dataset loader is configured", len(missing))
		}
		raw := append([]*microarray.Dataset(nil), st.raw...)
		indexes := append([]int(nil), st.indexes...)
		for _, gi := range missing {
			ds, lerr := s.cfg.ShardLoader(ctx, gi)
			if lerr != nil {
				return nil, 0, fmt.Errorf("loading dataset %d (%s): %w", gi, s.cfg.ShardDatasetIDs[gi], lerr)
			}
			raw = append(raw, ds)
			indexes = append(indexes, gi)
		}
		engine, eerr := spell.NewEngine(raw)
		if eerr != nil {
			return nil, 0, fmt.Errorf("rebuilding engine over %d datasets: %w", len(raw), eerr)
		}
		local := make(map[int]int, len(indexes))
		for li, gi := range indexes {
			local[gi] = li
		}
		next.engine, next.indexes, next.local, next.raw = engine, indexes, local, raw
	}
	s.shardSt.Store(next)
	s.coord.ForgetInfo() // its own coordinator counts the grown holdings anew
	s.shardReloads.Add(1)
	return next, len(missing), nil
}

// drainResponse acks a drain.
type drainResponse struct {
	Status string `json:"status"`
}

// handleShardDrain serves POST /api/shard/v1/admin/drain: flip into the
// draining state — one way, advertised in /api/shard/v1/info and /api/stats,
// which demotes this shard to last resort in the coordinator's replica
// ordering — and fire OnDrained, once, so the daemon can exit through its
// graceful shutdown; the shard keeps serving until that ends. A request body
// is accepted and ignored, and a repeated drain answers the same.
func (s *Server) handleShardDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeJSONError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "POST to drain this shard")
		return
	}
	if s.draining.CompareAndSwap(false, true) && s.cfg.OnDrained != nil {
		go s.cfg.OnDrained()
	}
	s.writeJSON(w, http.StatusOK, drainResponse{Status: shard.StatusDraining})
}
