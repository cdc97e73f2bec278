package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"forestview/internal/golem"
	"forestview/internal/spell"
)

// ErrAllShardsFailed reports a scatter in which no ownership group could
// be served: there is nothing to merge and nothing to degrade to. The
// daemon maps it to 503 (retryable full outage), distinct from a query
// error (422).
var ErrAllShardsFailed = errors.New("shard: every shard failed")

// ErrDegradedUnresolved reports a degraded scatter whose *surviving*
// shards measured none of the query genes: the unreachable shards may
// hold them, so the honest answer is "retry later" (503), not the
// single-process "your genes don't exist" query error (422) that the
// same merge outcome means when every shard answered.
var ErrDegradedUnresolved = errors.New("shard: query genes unresolved — unreachable shards may hold them")

// Config assembles a Coordinator.
type Config struct {
	// Shards are the initial fleet members, by identity — the exact
	// strings the shard daemons were booted with in their -shards lists
	// (rendezvous ownership hashes these, so both sides must agree
	// byte-for-byte). Runtime membership changes go through Membership.
	Shards []string
	// Replication is the ownership factor R: every dataset is owned by its
	// top-R rendezvous shards and any R-1 failures lose nothing (default
	// 1, the single-owner fleet). Shard daemons must be booted with the
	// same factor, or coverage gaps surface as degraded merges.
	Replication int
	// Backend reaches the members (default: the shard protocol over HTTP,
	// configured by Resolve, Client and Deadline, which it alone reads). A
	// daemon holding an engine passes its in-process one; tests pass fakes.
	Backend Backend
	// Resolve turns a shard identity into a dial URL (default: trim, and
	// prefix "http://" unless a scheme is present — identities that are
	// themselves addresses). In-process tests resolve logical names to
	// httptest listeners with it.
	Resolve func(identity string) string
	// Client issues the scatter requests (default: net/http's default
	// transport with its idle pool widened to maxIdleConnsPerShard;
	// deadlines come from per-attempt contexts, not a client timeout).
	Client *http.Client
	// Deadline bounds each shard attempt (default 10s). A shard that
	// cannot answer within it is treated as failed for this query — the
	// attempt fails over to the next replica rather than waiting.
	Deadline time.Duration
	// Retry is ignored: a group whose replicas all failed outright always
	// gets its primary once more (fetchGroups' forced step). It stays a
	// field only because bench/topology.go sets it (ROADMAP item 1(c)).
	Retry bool
}

// maxIdleConnsPerShard is how many idle connections the default client
// keeps per shard. One scatter has one request open per shard, but scatters
// overlap — the daemon runs as many as it has distinct queries in flight —
// and net/http's default of 2 closes every connection beyond it when its
// request finishes, so the next burst re-dials them.
const maxIdleConnsPerShard = 32

// NormalizeAddr is the default identity resolver: an address-like
// identity ("host:port", with or without a scheme) becomes a base URL.
func NormalizeAddr(identity string) string {
	s := strings.TrimRight(strings.TrimSpace(identity), "/")
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	return s
}

// Coordinator scatters SPELL queries over a replicated shard fleet and
// merges the partials with global weight renormalization. It stays
// stateless about datasets — ownership is a pure function of the live
// shard list (see Owners), and the dataset catalog it partitions into
// ownership groups is fetched from any one shard and cached per
// membership generation. Safe for concurrent use.
type Coordinator struct {
	cfg        Config
	backend    Backend
	membership *Membership

	counters sync.Map // shard identity -> *shardCounters
	rr       atomic.Uint64
	degraded atomic.Int64
	outages  atomic.Int64
	// uniformRounds counts searches that scattered a second time, for the
	// uniform accumulator pair (see SearchCtx).
	uniformRounds atomic.Int64

	// draining marks replicas an operator has flagged as leaving (the
	// shards' own advertised status is not read): orderReplicas demotes
	// them to the back so planned maintenance drains query load before
	// the membership bump. Keyed by identity; no generation semantics — a
	// mark survives until cleared (undrain, re-add, or remove).
	draining sync.Map // shard identity -> struct{}

	// catalog caches the ownership-group derivation, ecat the enrichment
	// term catalog (fetched from any capable shard), each per membership
	// generation.
	catalog genCache[*GroupTable]
	ecat    genCache[*golem.TermCatalog]

	info atomic.Pointer[infoState]

	// infoMu serializes info probes (at most one fan-out in flight);
	// infoFailedAt/infoErr remember the last failed round so that, during
	// an outage, /api/stats and page renders get the cached error
	// immediately instead of stacking shard probes behind the deadline.
	// A membership bump clears the cooldown: removing the dead member is
	// exactly what should make info answerable again.
	infoMu       sync.Mutex
	infoFailedAt time.Time
	infoErr      error
	infoErrGen   uint64
}

// NewCoordinator validates the config and prepares the scatter state.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	m, err := NewMembership(cfg.Shards)
	if err != nil {
		return nil, err
	}
	shards, _ := m.Snapshot()
	if cfg.Replication == 0 {
		cfg.Replication = 1
	}
	if cfg.Replication < 1 {
		return nil, fmt.Errorf("shard: replication factor %d < 1", cfg.Replication)
	}
	if cfg.Replication > len(shards) {
		return nil, fmt.Errorf("shard: replication factor %d exceeds the %d-shard fleet", cfg.Replication, len(shards))
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 10 * time.Second
	}
	backend := cfg.Backend
	if backend == nil {
		hb := &httpBackend{client: cfg.Client, resolve: cfg.Resolve, deadline: cfg.Deadline}
		if hb.client == nil {
			tr := http.DefaultTransport.(*http.Transport).Clone()
			tr.MaxIdleConnsPerHost = maxIdleConnsPerShard
			hb.client = &http.Client{Transport: tr}
		}
		if hb.resolve == nil {
			hb.resolve = NormalizeAddr
		}
		backend = hb
	}
	return &Coordinator{cfg: cfg, backend: backend, membership: m}, nil
}

// Membership exposes the live shard list for runtime joins and leaves
// (the daemon's /api/admin/fleet endpoint drives it). Every bump
// re-derives ownership on the next scatter and invalidates the cached
// catalog and compendium info.
func (c *Coordinator) Membership() *Membership { return c.membership }

// Generation fingerprints the live shard topology; see the package
// function. The daemon bakes it into merged-result cache keys, so results
// merged over a previous membership are unreachable after a bump.
func (c *Coordinator) Generation() uint64 { return c.membership.Generation() }

// Replication returns the configured ownership factor R.
func (c *Coordinator) Replication() int { return c.cfg.Replication }

// replicationFor clamps the configured factor to the live fleet size (a
// fleet shrunk below R still serves, with as many replicas as exist).
func (c *Coordinator) replicationFor(nShards int) int {
	r := c.cfg.Replication
	if r > nShards {
		r = nShards
	}
	if r < 1 {
		r = 1
	}
	return r
}

// SetDraining marks (or clears) a replica as draining: orderReplicas
// demotes marked replicas to last-resort, so a shard about to leave stops
// receiving primary traffic while it can still serve as a failover target.
// Driven by the daemon's fleet admin endpoint only.
func (c *Coordinator) SetDraining(shard string, draining bool) {
	shard = normalizeIdentity(shard)
	if draining {
		c.draining.Store(shard, struct{}{})
	} else {
		c.draining.Delete(shard)
	}
}

// isDraining reports whether a replica carries the draining mark.
func (c *Coordinator) isDraining(shard string) bool {
	_, ok := c.draining.Load(shard)
	return ok
}

// DrainingShards lists the live members currently marked draining.
func (c *Coordinator) DrainingShards() []string {
	shards, _ := c.membership.Snapshot()
	var out []string
	for _, s := range shards {
		if c.isDraining(s) {
			out = append(out, s)
		}
	}
	return out
}

// Meta describes how a scatter went: the fleet it ran against, how many
// ownership groups (and distinct shards) contributed, and whether the
// merged result is degraded — renormalized over less than the full
// compendium because some group could not be served completely.
type Meta struct {
	ShardsOK    int  `json:"shards_ok"`
	ShardsTotal int  `json:"shards_total"`
	Degraded    bool `json:"degraded"`
	Replication int  `json:"replication,omitempty"`
	GroupsOK    int  `json:"groups_ok,omitempty"`
	GroupsTotal int  `json:"groups_total,omitempty"`
}

// scatterOp is what differs between the fleet's scatters (search partials,
// enrichment slice tallies); scatter runs everything else. A is one
// member's answer to one request, P the mergeable payload it is cut into.
type scatterOp[A, P any] struct {
	// empty is the error an empty gene list is rejected with.
	empty string
	// ask asks one shard, through the backend, for a set of groups: the same
	// canonical gene list for every shard, a different list of owner tuples.
	ask func(ctx context.Context, shard string, genes, shards []string, replication int, groups [][]string) (*A, error)
	// prepare (optional) loads per-generation state the answers are checked
	// against, once the ownership catalog is known. Its error fails the
	// scatter as returned (wrap ErrAllShardsFailed to count an outage).
	prepare func(ctx context.Context, shards []string, gen uint64) error
	// split validates the answer to a request for the catalog groups req
	// and cuts it into parts (see part). Any error fails the whole attempt
	// over: exactness beats availability.
	split func(a *A, req []int, cat *GroupTable) ([]part[P], error)
}

// scattered is a scatter's outcome: the canonical gene list that was asked,
// the answers that contribute to the merge, and how the scatter went.
type scattered[P any] struct {
	genes []string
	parts []*P
	meta  Meta
	// firstErr is the first per-group failure, for degraded diagnostics.
	firstErr error
}

// unresolved is the ErrDegradedUnresolved a degraded merge that cannot
// rule the genes in or out is reported as.
func (sc *scattered[P]) unresolved() error {
	return fmt.Errorf("%w (%d of %d groups served: %v)",
		ErrDegradedUnresolved, sc.meta.GroupsOK, sc.meta.GroupsTotal, sc.firstErr)
}

// scatter runs one request over the fleet's ownership groups: snapshot the
// membership, derive (or reuse) the generation's ownership catalog, serve
// every group by one of its R replicas through fetchGroups' attempt
// discipline — the groups that go to one shard in one request — and tally
// the outcome. The result is degraded when some group could not be fully
// served (under replication that takes all R of its replicas failing); only
// a scatter in which no group contributed at all returns
// ErrAllShardsFailed. A canceled caller context aborts the scatter with the
// context error. Meta is valid on every return.
func scatter[A, P any](ctx context.Context, c *Coordinator, genes []string, op scatterOp[A, P]) (scattered[P], error) {
	shards, gen := c.membership.Snapshot()
	r := c.replicationFor(len(shards))
	sc := scattered[P]{genes: spell.CanonicalQuery(genes), meta: Meta{ShardsTotal: len(shards), Replication: r}}
	if len(sc.genes) == 0 {
		return sc, errors.New(op.empty)
	}
	// A set-up failure is the caller's own hangup if its context is done;
	// otherwise an outage when it says no shard could be reached.
	setupErr := func(err error) error {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if errors.Is(err, ErrAllShardsFailed) {
			c.outages.Add(1)
		}
		return err
	}
	cat, err := c.catalogFor(ctx, shards, gen)
	if err != nil {
		return sc, setupErr(err)
	}
	if op.prepare != nil {
		if err := op.prepare(ctx, shards, gen); err != nil {
			return sc, setupErr(err)
		}
	}
	sc.meta.GroupsTotal = len(cat.Tuples)

	results := fetchGroups(ctx, c, shards, cat.Tuples,
		func(actx context.Context, shard string, req []int) ([]part[P], error) {
			tuples := make([][]string, len(req))
			for i, gi := range req {
				tuples[i] = cat.Tuples[gi]
			}
			a, err := op.ask(actx, shard, sc.genes, shards, r, tuples)
			if err != nil {
				return nil, err
			}
			return op.split(a, req, cat)
		})
	if err := ctx.Err(); err != nil {
		// The caller hung up or timed out: report that, not a fabricated
		// outage — per-group errors here are all descendants of it.
		return sc, err
	}

	contributors := make(map[string]bool)
	merged := make(map[*P]bool) // a summed payload serves several groups, and merges once
	for gi, gr := range results {
		if gr.err != nil && sc.firstErr == nil {
			sc.firstErr = fmt.Errorf("group %v: %w", cat.Tuples[gi], gr.err)
		}
		if gr.payload == nil {
			continue
		}
		if gr.missing == 0 {
			sc.meta.GroupsOK++
		}
		// A best answer covering none of its group (the serving shard held
		// nothing of it — membership drift) adds nothing to the merge and
		// does not make its shard a contributor.
		if gr.missing < len(cat.Members[gi]) && !merged[gr.payload] {
			merged[gr.payload] = true
			sc.parts = append(sc.parts, gr.payload)
			contributors[gr.shard] = true
		}
	}
	sc.meta.ShardsOK = len(contributors)
	if len(sc.parts) == 0 {
		c.outages.Add(1)
		return sc, fmt.Errorf("%w (first: %v)", ErrAllShardsFailed, sc.firstErr)
	}
	sc.meta.Degraded = sc.meta.GroupsOK < sc.meta.GroupsTotal
	if sc.meta.Degraded {
		c.degraded.Add(1)
	}
	return sc, nil
}

// searchOp is the search scatter: a request names owner tuples and the
// accumulator pair, an answer is SearchAnswer's summed frame plus one frame
// per partly held group. A part falls short of its group by the datasets
// its serving shard did not hold; a frame summed over several groups must
// cover every dataset of each.
func searchOp(b Backend, uniform bool) scatterOp[SearchAnswer, spell.Partial] {
	return scatterOp[SearchAnswer, spell.Partial]{
		empty: "spell: empty query",
		ask: func(ctx context.Context, shard string, genes, shards []string, r int, groups [][]string) (*SearchAnswer, error) {
			return b.Search(ctx, shard, &SearchRequest{Query: genes, Shards: shards, Replication: r, Groups: groups, Uniform: uniform})
		},
		split: func(a *SearchAnswer, req []int, cat *GroupTable) ([]part[spell.Partial], error) {
			parts := make([]part[spell.Partial], 0, len(a.Parts))
			seen := make([]bool, len(req))
			for _, sp := range a.Parts {
				if len(sp.Groups) == 0 || sp.Partial == nil {
					return nil, errors.New("answer part without groups or without a partial")
				}
				// A part names its groups as positions in the request.
				groups := make([]int, len(sp.Groups))
				for i, pos := range sp.Groups {
					if pos < 0 || pos >= len(req) || seen[pos] {
						return nil, fmt.Errorf("answer names group %d of a %d-group request out of range or twice", pos, len(req))
					}
					seen[pos] = true
					groups[i] = req[pos]
				}
				if sp.Partial.Uniform != uniform {
					return nil, fmt.Errorf("partial carries the wrong accumulator pair (uniform=%t)", sp.Partial.Uniform)
				}
				want := 0
				for _, gi := range groups {
					want += len(cat.Members[gi])
				}
				missing := want - len(sp.Partial.Datasets)
				if missing < 0 || (missing > 0 && len(groups) > 1) {
					return nil, fmt.Errorf("partial lists %d datasets for groups of %d", len(sp.Partial.Datasets), want)
				}
				parts = append(parts, part[spell.Partial]{groups: groups, payload: sp.Partial, missing: missing})
			}
			if slices.Contains(seen, false) {
				return nil, errors.New("answer leaves a requested group out")
			}
			return parts, nil
		},
	}
}

// SearchCtx scatters one query over the fleet's ownership groups (see
// scatter) and merges the partials with global renormalization. A degraded
// merge whose survivors measured none of the query genes is
// ErrDegradedUnresolved.
//
// The shards accumulate the pair the merge is expected to read: the
// coherence-weighted one, or with opt.UniformWeights the uniform one. A
// query whose coherences all clamp to zero — knowable only here, over the
// union — needs the uniform pair after all, and is scattered once more for
// it; its first round cost the shards next to nothing, no dataset having
// carried any weight.
func (c *Coordinator) SearchCtx(ctx context.Context, query []string, opt spell.Options) (*spell.Result, Meta, error) {
	res, meta, err := c.searchRound(ctx, query, opt, opt.UniformWeights)
	if errors.Is(err, spell.ErrNeedUniform) {
		c.uniformRounds.Add(1)
		res, meta, err = c.searchRound(ctx, query, opt, true)
	}
	return res, meta, err
}

// searchRound is one scatter and merge, for one accumulator pair.
func (c *Coordinator) searchRound(ctx context.Context, query []string, opt spell.Options, uniform bool) (*spell.Result, Meta, error) {
	sc, err := scatter(ctx, c, query, searchOp(c.backend, uniform))
	if err != nil {
		return nil, sc.meta, err
	}
	parts := make([]spell.Partial, len(sc.parts))
	for i, p := range sc.parts {
		parts[i] = *p
	}
	res, err := spell.Merge(parts, opt)
	if err != nil {
		if sc.meta.Degraded && errors.Is(err, spell.ErrNoQueryGenes) {
			// The survivors can't rule the genes in OR out.
			err = sc.unresolved()
		}
		return nil, sc.meta, err
	}
	return res, sc.meta, nil
}

// StatsSnapshot is the scatter section of /api/stats.
type StatsSnapshot struct {
	// Generation is the live-membership fingerprint baked into
	// merged-result cache keys, in hex.
	Generation  string `json:"generation"`
	ShardsTotal int    `json:"shards_total"`
	// Replication is the configured ownership factor R.
	Replication int `json:"replication"`
	// MembershipBumps counts runtime joins and leaves since boot.
	MembershipBumps int64 `json:"membership_bumps"`
	// Groups is the number of ownership groups in the current catalog (0
	// until the first scatter of this generation derives it).
	Groups      int   `json:"groups"`
	Degraded    int64 `json:"degraded"`     // queries merged over less than full coverage
	FullOutages int64 `json:"full_outages"` // scatters in which no group was served
	// UniformRounds counts searches that were scattered a second time for
	// the uniform accumulator pair: queries incoherent in every dataset.
	UniformRounds int64           `json:"uniform_rounds"`
	Shards        []ShardSnapshot `json:"shards"`
}

// ShardSnapshot is one backend's cumulative counters plus its breaker and
// drain state.
type ShardSnapshot struct {
	Addr string `json:"addr"`
	// Requests counts wire requests, Groups the ownership groups they
	// carried: Groups / Requests is the batching factor. Errors, like the
	// latencies, are per request; Retries, Failovers and BreakerSkips count
	// groups.
	Requests  int64 `json:"requests"`
	Groups    int64 `json:"groups"`
	Errors    int64 `json:"errors"`
	Retries   int64 `json:"retries"`
	Failovers int64 `json:"failovers"`
	// Hedges is always 0: the scatter sends no duplicate requests. The
	// field stays only because bench/run.go, which a benchmarked change may
	// not edit, reads it (ROADMAP item 1(m)).
	Hedges        int64 `json:"-"`
	InFlight      int64 `json:"in_flight"`
	MeanLatencyUS int64 `json:"mean_latency_us"`
	MaxLatencyUS  int64 `json:"max_latency_us"`
	// Draining marks a replica demoted to last-resort ordering.
	Draining bool `json:"draining,omitempty"`
	// Breaker is the replica's circuit state (closed / open / half-open),
	// with cumulative trip and skipped-attempt counts.
	Breaker      string `json:"breaker,omitempty"`
	BreakerTrips int64  `json:"breaker_trips,omitempty"`
	BreakerSkips int64  `json:"breaker_skips,omitempty"`
}

// Stats snapshots the scatter counters for the live membership.
func (c *Coordinator) Stats() StatsSnapshot {
	shards, gen := c.membership.Snapshot()
	snap := StatsSnapshot{
		Generation:      fmt.Sprintf("%016x", gen),
		ShardsTotal:     len(shards),
		Replication:     c.cfg.Replication,
		MembershipBumps: c.membership.Bumps(),
		Degraded:        c.degraded.Load(),
		FullOutages:     c.outages.Load(),
		UniformRounds:   c.uniformRounds.Load(),
	}
	if cat, ok := c.catalog.peek(gen); ok {
		snap.Groups = len(cat.Tuples)
	}
	for _, addr := range shards {
		sc := c.counterFor(addr)
		s := ShardSnapshot{
			Addr:         addr,
			Requests:     sc.requests.Load(),
			Groups:       sc.groups.Load(),
			Errors:       sc.errors.Load(),
			Retries:      sc.retries.Load(),
			Failovers:    sc.failovers.Load(),
			InFlight:     sc.inflight.Load(),
			MaxLatencyUS: sc.maxUS.Load(),
			Draining:     c.isDraining(addr),
			BreakerSkips: sc.breakerSkips.Load(),
		}
		s.Breaker, s.BreakerTrips = sc.breaker.snapshot()
		if s.Requests > 0 {
			s.MeanLatencyUS = sc.latencyUS.Load() / s.Requests
		}
		snap.Shards = append(snap.Shards, s)
	}
	return snap
}
