package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"time"
)

// This file is the attempt discipline of a scatter: the per-replica
// bookkeeping around each backend call (counters, in-flight gauge, circuit
// breaker), replica ordering, and fetchGroups' per-group candidate walks
// (failover, hedge, last-resort retry, scavenge) batched into per-shard
// requests.

// shardCounters is one backend's cumulative scatter accounting, plus its
// circuit breaker (per-replica state lives with per-replica counters).
type shardCounters struct {
	requests     atomic.Int64 // wire requests
	groups       atomic.Int64 // ownership groups those requests carried
	errors       atomic.Int64
	retries      atomic.Int64
	hedges       atomic.Int64
	failovers    atomic.Int64 // attempts landed here after another replica failed or fell short
	hedgeWins    atomic.Int64 // hedged attempts whose answer was the one used
	breakerSkips atomic.Int64 // attempts skipped because the breaker was open
	inflight     atomic.Int64
	latencyUS    atomic.Int64
	maxUS        atomic.Int64
	breaker      breaker
}

func (s *shardCounters) observe(d time.Duration, groups int, failed bool) {
	s.requests.Add(1)
	s.groups.Add(int64(groups))
	if failed {
		s.errors.Add(1)
	}
	us := d.Microseconds()
	s.latencyUS.Add(us)
	for {
		cur := s.maxUS.Load()
		if us <= cur || s.maxUS.CompareAndSwap(cur, us) {
			break
		}
	}
}

func (c *Coordinator) counterFor(shard string) *shardCounters {
	if v, ok := c.counters.Load(shard); ok {
		return v.(*shardCounters)
	}
	v, _ := c.counters.LoadOrStore(shard, &shardCounters{})
	return v.(*shardCounters)
}

// breakerAllow consults a replica's breaker. lastResort forces admission as
// a half-open probe: the caller has no other replica to send the group to,
// and an untried group is worse than probing a suspect shard.
func (c *Coordinator) breakerAllow(shard string, lastResort bool) (ok, probe bool) {
	return c.counterFor(shard).breaker.allow(time.Now(), lastResort)
}

// breakerObserve feeds an attempt outcome to the replica's breaker.
// Cancellation is neutral: a hedge loser or caller hangup says nothing
// about the shard's health, so it neither trips nor closes anything (a
// canceled probe only releases the probe slot).
func (c *Coordinator) breakerObserve(shard string, err error, probe bool) {
	b := &c.counterFor(shard).breaker
	if err != nil && errors.Is(err, context.Canceled) {
		if probe {
			b.clearProbe()
		}
		return
	}
	b.observe(err == nil, probe, time.Now(), breakerThreshold, func(opens int) time.Duration {
		return breakerBackoff.Delay(opens, rand.Float64)
	})
}

// orderReplicas orders a group's replica tuple for attempts: draining
// replicas are demoted to the back in rank order (last-resort only — a
// draining shard still serves, but new primary traffic belongs on its
// successors), then the primary is picked by power-of-two-choices over the
// remaining replicas' in-flight counts (two rotating probes, least loaded
// wins), the rest following in rank order. With fewer than two candidates
// the tuple order stands.
func (c *Coordinator) orderReplicas(owners []string) []string {
	out := make([]string, 0, len(owners))
	var last []string
	for _, s := range owners {
		if c.isDraining(s) {
			last = append(last, s)
		} else {
			out = append(out, s)
		}
	}
	if len(out) >= 2 {
		n := c.rr.Add(1)
		l := uint64(len(out))
		i := int(n % l)
		j := int((n / l) % l)
		if i == j {
			j = (j + 1) % len(out)
		}
		pick := i
		if c.counterFor(out[j]).inflight.Load() < c.counterFor(out[pick]).inflight.Load() {
			pick = j
		}
		picked := out[pick]
		copy(out[1:pick+1], out[:pick])
		out[0] = picked
	}
	return append(out, last...)
}

// part is one mergeable piece of a shard's answer: the catalog groups it
// serves and its payload. A part serving several groups serves each of them
// completely; a part serving one may fall short of it by missing datasets
// (0 = the group is fully served; higher = a failover-worthy shortfall, the
// datasets the serving shard did not hold).
type part[P any] struct {
	groups  []int
	payload *P
	missing int
}

// requestFn is one endpoint-specific shard request for a set of catalog
// groups: it returns the decoded, validated answer cut into parts. A group
// of the request that no part serves got nothing from this shard.
type requestFn[P any] func(ctx context.Context, shard string, groups []int) ([]part[P], error)

// request runs one shard request inside its bookkeeping — the in-flight
// gauge p2c reads, the latency/error/batching counters, and the breaker
// observation (probe says the breaker admitted it as the half-open probe).
func request[P any](ctx context.Context, c *Coordinator, shard string, groups []int, probe bool, do requestFn[P]) ([]part[P], error) {
	sc := c.counterFor(shard)
	sc.inflight.Add(1)
	t0 := time.Now()
	parts, err := do(ctx, shard, groups)
	sc.inflight.Add(-1)
	sc.observe(time.Since(t0), len(groups), err != nil)
	c.breakerObserve(shard, err, probe)
	return parts, err
}

// groupResult is one ownership group's scatter outcome: the best answer
// obtained (lowest missing score; under batching a payload may be shared
// with other groups), which shard served it, and the first error met along
// the way.
type groupResult[P any] struct {
	payload *P
	shard   string
	missing int
	err     error
}

// complete reports whether the group is fully served.
func (g *groupResult[P]) complete() bool { return g.payload != nil && g.missing == 0 }

// groupWalk is one group's place in its attempt discipline.
type groupWalk[P any] struct {
	groupResult[P]
	// cands is the ordered candidate walk: the group's replicas
	// (orderReplicas: p2c primary first, draining last), then every other
	// fleet member; next is the walk's position, owners how many of cands
	// are replicas.
	cands  []string
	owners int
	next   int
	// flying counts the requests in flight that carry the group, waiting
	// whether a backoff timer holds its next attempt.
	flying  int
	waiting bool
	// launched: some request has carried the group. retried: the
	// last-resort retry is spent. scavenging: the walk has left the owners;
	// fails counts the failed scavenge attempts behind the growing backoff.
	launched, retried, scavenging bool
	fails                         int
}

// fetchGroups runs the attempt discipline of every ownership group of one
// scatter over an endpoint-specific request function, and returns each
// group's best answer. The discipline is per group; what travels is per
// shard: whenever groups need an attempt at the same moment, those whose
// next candidate is the same shard go out in one request, and an answer
// settles the groups it serves while the rest move on at once — there is no
// barrier between shards or between rounds.
//
// A group's candidates form one ordered walk: its replicas, then every
// other fleet member. A candidate whose breaker is open is skipped
// (counted); each candidate is tried at most once by the walk. The primary
// goes first; an error, or an answer that leaves the group incomplete, fails
// it over to the next replica. The hedge timer (if configured) fires once
// per scatter: every group still waiting on a replica is duplicated onto
// its next untried replica, or onto the primary itself when none remain
// (the single-owner tail-latency hedge). Whichever complete answer arrives
// first settles a group; a summed part that covers a group already settled
// cannot be taken apart and is dropped whole, and the shard that sent it is
// asked again, as a plain attempt, for the groups of it still unsettled
// (each re-ask names strictly fewer groups, so this ends) — their hedges
// may have been batched onto a shard that never answers, and waiting for
// those would take the deadline. If every replica's breaker refused admission, the
// primary is probed anyway — the availability floor. If every replica
// failed outright, Retry grants the primary one extra attempt after a
// jittered backoff, forced through its breaker as a probe: there is nowhere
// else to send the group.
//
// Only when coverage is still incomplete — which consistent placement never
// triggers — does the walk continue past the replicas, one candidate at a
// time, with a growing backoff after failures: after a membership change
// without a data re-sync the other shards may still hold the group's
// datasets from their boot-time assignment (and for enrichment any capable
// shard can serve any slice). These scavenge answers are cheap and empty in
// the common case. The best answer wins.
//
// The failover, hedge, retry and breaker-skip counters count groups, as
// they did when every group travelled alone; requests counts what went over
// the wire.
func fetchGroups[P any](ctx context.Context, c *Coordinator, shards []string, groups [][]string, do requestFn[P]) []groupResult[P] {
	// One cancel for the whole scatter: returning stops any stragglers.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	walks := make([]groupWalk[P], len(groups))
	for gi, owners := range groups {
		w := &walks[gi]
		w.cands = c.orderReplicas(owners)
		w.owners = len(w.cands)
		for _, s := range shards {
			if !slices.Contains(w.cands[:w.owners], s) {
				w.cands = append(w.cands, s)
			}
		}
	}

	// What the loop below waits for: answers, and backoff timers running out.
	type event struct {
		shard  string
		groups []int // the request's groups, or the one group a timer held back
		hedge  bool
		parts  []part[P]
		err    error
		then   func() // a backoff ran out: the launch it held back
	}
	events := make(chan event)
	done := make(chan struct{}) // closed on return: nobody reads events any more
	defer close(done)
	send := func(ev event) {
		select {
		case events <- ev:
		case <-done:
		}
	}
	pending := 0 // requests in flight + timers running

	// Launches collect in batch, one entry per shard and kind, until flush
	// sends them; admitted remembers each shard's breaker verdict for the
	// batch, so the groups of one request share one admission (and one
	// half-open probe).
	type launch struct {
		shard  string
		hedge  bool
		probe  bool
		groups []int
	}
	var batch []launch
	type verdict struct{ ok, probe bool }
	admitted := map[string]verdict{}
	enqueue := func(gi int, shard string, hedge, probe bool) {
		w := &walks[gi]
		w.launched = true
		w.flying++
		for i := range batch {
			if batch[i].shard == shard && batch[i].hedge == hedge {
				batch[i].groups = append(batch[i].groups, gi)
				batch[i].probe = batch[i].probe || probe
				return
			}
		}
		batch = append(batch, launch{shard: shard, hedge: hedge, probe: probe, groups: []int{gi}})
	}
	flush := func() {
		for _, l := range batch {
			pending++
			go func() {
				parts, err := request(ctx, c, l.shard, l.groups, l.probe, do)
				send(event{shard: l.shard, groups: l.groups, hedge: l.hedge, parts: parts, err: err})
			}()
		}
		batch = batch[:0]
		clear(admitted)
	}
	// admit advances a group's walk to the next candidate before limit whose
	// breaker admits an attempt.
	admit := func(w *groupWalk[P], limit int) (shard string, probe, ok bool) {
		for w.next < limit && ctx.Err() == nil {
			s := w.cands[w.next]
			w.next++
			v, seen := admitted[s]
			if !seen {
				v.ok, v.probe = c.breakerAllow(s, false)
				admitted[s] = v
			}
			if v.ok {
				return s, v.probe, true
			}
			c.counterFor(s).breakerSkips.Add(1)
		}
		return "", false, false
	}
	// force sends a group to its primary through the breaker, as a probe.
	force := func(gi int) {
		s := walks[gi].cands[0]
		_, probe := c.breakerAllow(s, true)
		enqueue(gi, s, false, probe)
	}
	// after holds a group's next attempt, then, back for d; then runs on
	// this goroutine, unless the scatter ends first.
	after := func(gi int, d time.Duration, then func()) {
		walks[gi].waiting = true
		pending++
		go func() {
			ev := event{groups: []int{gi}, then: then}
			if !sleepCtx(ctx, d) {
				ev.err = ctx.Err()
			}
			send(ev)
		}()
	}

	// advance gives an unsettled group its next attempt, if it is due one.
	advance := func(gi int) {
		w := &walks[gi]
		if w.complete() || w.waiting || ctx.Err() != nil {
			return
		}
		if !w.scavenging {
			if s, probe, ok := admit(w, w.owners); ok {
				if w.launched {
					c.counterFor(s).failovers.Add(1)
				}
				enqueue(gi, s, false, probe)
				return
			}
			if !w.launched && w.owners > 0 && ctx.Err() == nil {
				// Availability floor: every replica's breaker refused
				// admission. Force a half-open probe of the primary rather
				// than fail the group without a single attempt.
				force(gi)
				return
			}
		}
		if w.flying > 0 {
			return // a hedge, or what it duplicated, is still out
		}
		if w.payload == nil && c.cfg.Retry && !w.retried && w.owners > 0 && !w.scavenging {
			w.retried = true
			after(gi, retryBackoff.Delay(0, rand.Float64), func() {
				c.counterFor(w.cands[0]).retries.Add(1)
				force(gi)
			})
			return
		}
		// Scavenging is speculative, so a shard known to be sick (open
		// breaker) is not worth the attempt deadline: admit skips it.
		w.scavenging = true
		s, probe, ok := admit(w, len(w.cands))
		if !ok {
			return
		}
		scavenge := func() {
			c.counterFor(s).failovers.Add(1)
			enqueue(gi, s, false, probe)
		}
		if w.fails > 0 {
			after(gi, retryBackoff.Delay(w.fails-1, rand.Float64), scavenge)
			return
		}
		scavenge()
	}

	for gi := range walks {
		advance(gi)
	}
	flush()
	var hedgeC <-chan time.Time
	if c.cfg.HedgeAfter > 0 {
		timer := time.NewTimer(c.cfg.HedgeAfter)
		defer timer.Stop()
		hedgeC = timer.C
	}
	unsettled := len(walks)
	for pending > 0 && unsettled > 0 {
		select {
		case ev := <-events:
			pending--
			var reasked []int // groups of ev asked for again on ev.shard
			switch {
			case ev.then != nil:
				walks[ev.groups[0]].waiting = false
				if ev.err == nil {
					ev.then()
				}
			case ev.err != nil:
				for _, gi := range ev.groups {
					w := &walks[gi]
					w.flying--
					if w.err == nil {
						w.err = fmt.Errorf("%s: %w", ev.shard, ev.err)
					}
					if w.scavenging {
						w.fails++
					}
				}
			default:
				for _, gi := range ev.groups {
					walks[gi].flying--
					if ev.hedge {
						c.counterFor(ev.shard).hedgeWins.Add(1)
					}
				}
				for _, p := range ev.parts {
					// First come: a part is taken only for groups still
					// unsettled, and a summed part only whole. One that
					// overlaps a settled group is dropped, and the shard
					// asked again, at once, for just the groups of it still
					// unsettled: it recomputes them, and their other
					// attempts may sit on a shard that never answers.
					if slices.ContainsFunc(p.groups, func(gi int) bool { return walks[gi].complete() }) {
						for _, gi := range p.groups {
							if !walks[gi].complete() {
								reasked = append(reasked, gi)
								enqueue(gi, ev.shard, false, false)
							}
						}
						continue
					}
					for _, gi := range p.groups {
						w := &walks[gi]
						if w.payload == nil || p.missing < w.missing {
							w.payload, w.shard, w.missing = p.payload, ev.shard, p.missing
							if w.complete() {
								unsettled--
							}
						}
					}
				}
			}
			// Failed, or incomplete coverage (membership drift): each group
			// the event leaves unsettled tries its next candidate — unless
			// it was just asked for again where it is.
			for _, gi := range ev.groups {
				if !slices.Contains(reasked, gi) {
					advance(gi)
				}
			}
		case <-hedgeC:
			hedgeC = nil
			if ctx.Err() != nil {
				continue
			}
			for gi := range walks {
				w := &walks[gi]
				if w.complete() || w.flying == 0 || w.scavenging || w.retried {
					continue
				}
				if s, probe, ok := admit(w, w.owners); ok {
					c.counterFor(s).hedges.Add(1)
					enqueue(gi, s, true, probe)
				} else if w.next >= w.owners && w.owners > 0 {
					// Every replica already tried or in flight: duplicate
					// the primary, the legacy tail-latency hedge.
					c.counterFor(w.cands[0]).hedges.Add(1)
					enqueue(gi, w.cands[0], true, false)
				}
			}
		}
		flush()
	}
	results := make([]groupResult[P], len(walks))
	for gi := range walks {
		results[gi] = walks[gi].groupResult
	}
	return results
}
