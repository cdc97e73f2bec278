package server

import (
	"bytes"
	"container/list"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"forestview/internal/golem"
	"forestview/internal/microarray"
	"forestview/internal/shard"
	"forestview/internal/spell"
)

// This file is the shard role's planned-maintenance side (DESIGN.md §7):
// the reloadable membership view behind /api/shard/v1/admin/fleet, the
// token-gated drain protocol at /api/shard/v1/admin/drain, and the warm
// handoff push/receive at /api/shard/v1/handoff. The design invariant is
// that a rolling restart is a zero-degradation event: survivors take
// ownership (reload) *before* the leaver drains, the leaver pushes its
// warm partials keyed under the post-drain topology, and the receivers
// either accept a partial covering exactly what they would compute or
// recompute it locally — a handoff can warm a cache but can never make it
// wrong.

// shardState is the shard role's reloadable view: the engine over the
// held datasets, the global-index maps, the raw datasets the engine was
// built from (nil disables reload), and the membership list the holdings
// were last derived from. Swapped atomically by reloadShard; handlers
// read one consistent state per request.
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

// warmCap bounds the hot-query tracker: a drain pushes at most this many
// distinct queries per ownership group, so handoff cost stays bounded no
// matter how long the shard ran.
const warmCap = 128

// warmTracker remembers the hottest partial keys this shard served — the
// (kind, canonical ids) pairs, LRU-ordered — so a drain knows what is
// worth handing to the successors. It deliberately does not record
// ownership scopes: groups re-partition under the post-drain topology, so
// the drain re-derives the scopes and only the queries themselves carry.
type warmTracker struct {
	mu    sync.Mutex
	ll    *list.List // front = hottest
	items map[string]*list.Element
}

type warmEntry struct {
	key  string
	kind string
	ids  []string
}

func newWarmTracker() *warmTracker {
	return &warmTracker{ll: list.New(), items: make(map[string]*list.Element)}
}

func (w *warmTracker) touch(kind string, ids []string) {
	key := kind + "\x1f" + joinIDs(ids)
	w.mu.Lock()
	defer w.mu.Unlock()
	if el, ok := w.items[key]; ok {
		w.ll.MoveToFront(el)
		return
	}
	w.items[key] = w.ll.PushFront(&warmEntry{key: key, kind: kind, ids: append([]string(nil), ids...)})
	for w.ll.Len() > warmCap {
		old := w.ll.Back()
		w.ll.Remove(old)
		delete(w.items, old.Value.(*warmEntry).key)
	}
}

// snapshot returns the tracked entries, hottest first.
func (w *warmTracker) snapshot() []*warmEntry {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]*warmEntry, 0, w.ll.Len())
	for el := w.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*warmEntry))
	}
	return out
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
// old and new holdings, and swap. Serialized with drains under shardMu.
func (s *Server) reloadShard(ctx context.Context, shards []string, repl int) (*shardState, int, error) {
	if s.fleet == nil {
		return nil, 0, fmt.Errorf("shard booted without a fleet view (-self/-shards); membership reload unavailable")
	}
	s.shardMu.Lock()
	defer s.shardMu.Unlock()
	normalized, gen, err := s.fleet.Set(shards)
	if err != nil {
		return nil, 0, err
	}
	st := s.shardState()
	if repl <= 0 {
		repl = st.repl
	}
	if repl > len(normalized) {
		repl = len(normalized)
	}

	// The owned set under the new view; empty when this shard is not in the
	// list (a leaver keeps serving its holdings until it exits).
	var owned []int
	for _, id := range normalized {
		if id == s.cfg.ShardSelf {
			owned = shard.OwnedIndexesR(s.cfg.ShardDatasetIDs, normalized, s.cfg.ShardSelf, repl)
			break
		}
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
	s.shardReloads.Add(1)
	return next, len(missing), nil
}

// drainRequest is the optional POST /api/shard/v1/admin/drain body: the
// post-drain topology the warm entries should be keyed under. Empty
// defaults to the shard's current membership view minus itself.
type drainRequest struct {
	Shards      []string `json:"shards"`
	Replication int      `json:"replication"`
}

// drainResponse acks a drain: what was pushed where, so the operator's
// runbook (and the rolling-restart E2E) can assert the handoff happened
// before killing the process.
type drainResponse struct {
	Status     string   `json:"status"`
	Generation string   `json:"generation"` // of the post-drain topology
	Targets    []string `json:"targets"`
	Pushed     int64    `json:"pushed"`   // entries sent with a body
	Replayed   int64    `json:"replayed"` // entries sent for local recompute
	PushErrors []string `json:"push_errors,omitempty"`
}

// handleShardDrain serves POST /api/shard/v1/admin/drain: flip into the
// draining state (advertised via /api/shard/v1/info, demoting this shard
// to last-resort in coordinator replica ordering), push the warm partial
// entries to every successor replica under the post-drain topology, and
// ack. OnDrained then lets the daemon exit cleanly — in-flight partials
// finish through the HTTP server's graceful shutdown. Idempotent: a
// repeated drain reports the state without re-pushing.
func (s *Server) handleShardDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeJSONError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "POST to drain this shard")
		return
	}
	var req drainRequest
	// An empty body is a valid "use my current view" drain.
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		s.writeJSONError(w, http.StatusBadRequest, codeBadParameter, "bad drain request: "+err.Error())
		return
	}
	st := s.shardState()
	target := req.Shards
	if len(target) == 0 {
		for _, id := range st.shards {
			if id != s.cfg.ShardSelf {
				target = append(target, id)
			}
		}
	}
	if len(target) == 0 {
		s.writeJSONError(w, http.StatusUnprocessableEntity, codeUnprocessable,
			"no post-drain topology: body lists no shards and the shard's fleet view has no other members")
		return
	}
	for _, id := range target {
		if id == s.cfg.ShardSelf {
			s.writeJSONError(w, http.StatusUnprocessableEntity, codeUnprocessable,
				fmt.Sprintf("post-drain topology still contains this shard (%s)", s.cfg.ShardSelf))
			return
		}
	}
	repl := req.Replication
	if repl <= 0 {
		repl = st.repl
	}
	if repl > len(target) {
		repl = len(target)
	}

	resp := drainResponse{
		Status:     shard.StatusDraining,
		Generation: fmt.Sprintf("%016x", shard.Generation(target)),
		Targets:    target,
	}
	if s.draining.CompareAndSwap(false, true) {
		s.shardMu.Lock()
		pushed, replayed, errs := s.pushHandoff(r.Context(), st, target, repl)
		s.shardMu.Unlock()
		resp.Pushed, resp.Replayed, resp.PushErrors = pushed, replayed, errs
		if s.cfg.OnDrained != nil {
			go s.cfg.OnDrained()
		}
	} else {
		resp.Pushed, resp.Replayed = s.handoffPushed.Load(), s.handoffReplayed.Load()
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// pushHandoff derives the post-drain ownership groups and pushes one
// HandoffRequest to every successor replica: for each tracked hot query ×
// each group, a gob body when this shard holds the *whole* group (the
// partial is then exactly what the receiver would compute), or a bodyless
// entry telling the receiver to recompute locally. Enrichment slices are
// data-independent, so their bodies are always valid on any capable
// receiver.
func (s *Server) pushHandoff(ctx context.Context, st *shardState, target []string, repl int) (pushed, replayed int64, errs []string) {
	warm := s.warm.snapshot()
	if len(warm) == 0 {
		return 0, 0, nil
	}
	v := s.groupView(st, target, repl)
	batches := make(map[string][]shard.HandoffEntry, len(target))
	for gi, owners := range v.table.Tuples {
		for _, e := range warm {
			var body []byte
			switch e.kind {
			case shard.CapabilitySearch:
				if v.holdsAll(gi) {
					if p, _, err := s.groupPartial(ctx, st, searchPartialKey(v, owners, false, e.ids), e.ids, v.held[gi], false); err == nil {
						body, _ = encodePartial(p)
					}
				}
			case shard.CapabilityEnrich:
				if s.cfg.Enricher == nil {
					continue
				}
				body, _, _ = s.sliceTallies(ctx, groupEnrichKey(v, owners, e.ids), e.ids, gi, len(v.table.Tuples))
			default:
				continue
			}
			entry := shard.HandoffEntry{Kind: e.kind, Query: e.ids, Owners: owners, Body: body}
			for _, owner := range owners {
				batches[owner] = append(batches[owner], entry)
			}
			if body != nil {
				pushed += int64(len(owners))
			} else {
				replayed += int64(len(owners))
			}
		}
	}

	resolve := s.cfg.ShardResolve
	if resolve == nil {
		resolve = shard.NormalizeAddr
	}
	for _, owner := range target {
		batch := batches[owner]
		if len(batch) == 0 {
			continue
		}
		if err := s.pushOneHandoff(ctx, resolve(owner), shard.HandoffRequest{
			From: s.cfg.ShardSelf, Shards: target, Replication: repl,
			Generation: v.gen, Entries: batch,
		}); err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", owner, err))
			s.handoffPushErrors.Add(1)
		}
	}
	s.handoffPushed.Add(pushed)
	s.handoffReplayed.Add(replayed)
	return pushed, replayed, errs
}

// pushOneHandoff posts one batch to a successor, authenticated with the
// same fleet token that gates the receiving endpoint. The response is a few
// counters: it is read through a limit, and a bounded remainder is drained
// before the body is closed so the connection returns to the idle pool (see
// shard's call).
func (s *Server) pushOneHandoff(ctx context.Context, baseURL string, req shard.HandoffRequest) error {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(req); err != nil {
		return err
	}
	hctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	hreq, err := http.NewRequestWithContext(hctx, http.MethodPost, baseURL+shard.HandoffPath, &body)
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", shard.ContentType)
	hreq.Header.Set("X-Fleet-Token", s.cfg.FleetToken)
	resp, err := s.fleetClient.Do(hreq)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.CopyN(io.Discard, resp.Body, 64<<10) // best effort: a failure only costs the reuse
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("handoff status %d", resp.StatusCode)
	}
	var hr shard.HandoffResponse
	if err := gob.NewDecoder(io.LimitReader(resp.Body, 64<<10)).Decode(&hr); err != nil {
		return fmt.Errorf("decoding handoff response: %w", err)
	}
	if hr.RefusedStale > 0 {
		return fmt.Errorf("receiver refused %d entries as stale (generation mismatch)", hr.RefusedStale)
	}
	return nil
}

// handleShardHandoff receives a draining peer's warm entries. The
// generation guard is absolute: unless the push's topology fingerprint
// matches both its own shard list and this shard's live membership view,
// every entry is refused as stale — a cache must never be seeded under a
// topology nobody is serving. Per entry, a body is accepted only if it is
// exactly what this shard would compute for that key (same dataset set,
// same enrichment slice); anything else is recomputed locally instead —
// replay warming — so a handoff can never make the cache wrong.
func (s *Server) handleShardHandoff(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeJSONError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "POST a gob-encoded handoff batch")
		return
	}
	var req shard.HandoffRequest
	if err := gob.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&req); err != nil {
		s.writeJSONError(w, http.StatusBadRequest, codeBadParameter, "bad handoff request: "+err.Error())
		return
	}
	if req.Generation != shard.Generation(req.Shards) {
		s.writeJSONError(w, http.StatusUnprocessableEntity, codeUnprocessable,
			"handoff generation does not fingerprint its own shard list")
		return
	}
	var resp shard.HandoffResponse
	st := s.shardState()
	if st.shards == nil || st.gen != req.Generation {
		resp.RefusedStale = len(req.Entries)
		s.handoffRefused.Add(int64(len(req.Entries)))
	} else {
		v := s.groupView(st, req.Shards, req.Replication)
		for _, e := range req.Entries {
			switch s.acceptHandoffEntry(r.Context(), v, &e) {
			case handoffAccepted:
				resp.Accepted++
			case handoffRecomputed:
				resp.Recomputed++
			default:
				resp.Skipped++
			}
		}
		s.handoffAccepted.Add(int64(resp.Accepted))
		s.handoffRecomputed.Add(int64(resp.Recomputed))
	}
	s.writeGob(w, "handoff response", resp)
}

type handoffOutcome int

const (
	handoffSkipped handoffOutcome = iota
	handoffAccepted
	handoffRecomputed
)

// acceptHandoffEntry validates one pushed entry and either caches it under
// the exact key this shard serves — a search partial decoded, an enrichment
// slice as the body it came in — or recomputes the partial locally (filling
// the same key through the normal cached path).
func (s *Server) acceptHandoffEntry(ctx context.Context, v *groupView, e *shard.HandoffEntry) handoffOutcome {
	ids := spell.CanonicalQuery(e.Query)
	gi, ok := v.table.Lookup(e.Owners)
	if len(ids) == 0 || !ok {
		return handoffSkipped
	}
	switch e.Kind {
	case shard.CapabilitySearch:
		key := searchPartialKey(v, e.Owners, false, ids)
		if p := s.pushedSearchPartial(v, gi, ids, e.Body); p != nil {
			s.cache.Put(key, p, v.st.partialCost(p))
			return handoffAccepted
		}
		if _, _, err := s.groupPartial(ctx, v.st, key, ids, v.held[gi], false); err == nil {
			return handoffRecomputed
		}
	case shard.CapabilityEnrich:
		if s.cfg.Enricher == nil {
			return handoffSkipped
		}
		key := groupEnrichKey(v, e.Owners, ids)
		if s.enrichBodyMatches(v, gi, e.Body) {
			s.cache.Put(key, e.Body, wireCost(e.Body))
			return handoffAccepted
		}
		if _, _, err := s.sliceTallies(ctx, key, ids, gi, len(v.table.Tuples)); err == nil {
			return handoffRecomputed
		}
	}
	return handoffSkipped
}

// pushedSearchPartial decodes a pushed search partial and returns it only
// if it is what this shard would compute for the group: the weighted pair,
// for this query, over exactly the group's members this shard holds. Any
// difference — the drainer held less, or we hold less — and any body whose
// frame does not decode (a peer on another frame version) returns nil and
// the entry is recomputed instead. An accepted partial that lists the
// engine's genes in the engine's order is made to share the engine's
// columns, so the cache does not pin the frame's ID and name blobs.
func (s *Server) pushedSearchPartial(v *groupView, gi int, ids []string, body []byte) *spell.Partial {
	if body == nil {
		return nil
	}
	p := new(spell.Partial)
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(p); err != nil {
		return nil
	}
	if p.Uniform || !slices.Equal(p.Query, ids) || len(p.Datasets) != len(v.held[gi]) {
		return nil
	}
	want := make(map[int]bool, len(v.held[gi]))
	for _, li := range v.held[gi] {
		want[v.st.indexes[li]] = true
	}
	for _, d := range p.Datasets {
		if !want[d.Index] {
			return nil
		}
		delete(want, d.Index)
	}
	v.st.engine.AdoptGenes(p)
	return p
}

// enrichBodyMatches reports whether a pushed enrichment partial is the
// slice this shard would compute: same kernel fingerprint, and the
// slice/slices pair the group derivation assigns to the entry's owners.
// Slice tallies are data-independent, so fingerprint + slice identity is
// the whole contract.
func (s *Server) enrichBodyMatches(v *groupView, gi int, body []byte) bool {
	if body == nil {
		return false
	}
	var p golem.PartialCounts
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&p); err != nil {
		return false
	}
	return p.Fingerprint == s.cfg.Enricher.Fingerprint() && p.Slice == gi && p.Slices == len(v.table.Tuples)
}
