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
// breaker), replica ordering, and fetchGroups' one candidate walk per group
// (failover, the forced step, scavenge) batched into per-shard requests.

// shardCounters is one backend's cumulative scatter accounting, plus its
// circuit breaker (per-replica state lives with per-replica counters).
type shardCounters struct {
	requests     atomic.Int64 // wire requests
	groups       atomic.Int64 // ownership groups those requests carried
	errors       atomic.Int64
	retries      atomic.Int64
	failovers    atomic.Int64 // attempts landed here after another replica failed or fell short
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
// Cancellation is neutral: a caller hangup says nothing about the shard's
// health, so it neither trips nor closes anything (a canceled probe only
// releases the probe slot).
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
// groups: it returns the decoded, validated answer cut into parts, which
// serve every group of the request (split refuses an answer that leaves
// one out).
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
	// (orderReplicas: p2c primary first, draining last), the primary once
	// more (the forced step, at cands[owners]), then every other fleet
	// member. next is the walk's position; fails counts the failed scavenge
	// attempts behind the growing backoff.
	cands  []string
	owners int
	next   int
	fails  int
}

// fetchGroups runs the attempt discipline of every ownership group of one
// scatter over an endpoint-specific request function, and returns each
// group's best answer. The discipline is per group; what travels is per
// shard: whenever groups need an attempt at the same moment, those whose
// next candidate is the same shard go out in one request, and an answer
// settles the groups it serves while the rest move on at once — there is no
// barrier between shards or between rounds.
//
// A group's candidates form one ordered walk, and a step's role follows
// from its position in it:
//   - the replicas, primary first. A candidate whose breaker is open is
//     skipped (counted); an error, or an answer that leaves the group
//     incomplete, fails the group over to the next replica.
//   - the primary once more, forced through its breaker as a probe: there
//     is nowhere else to send the group. If no replica was admitted it is
//     the availability floor and goes at once; if every replica failed
//     outright it is the last-resort retry, after a jittered backoff. A
//     group some replica answered in part skips it.
//   - every other fleet member: scavenge, one candidate at a time, with a
//     growing backoff after failures, while coverage is still incomplete
//     (which consistent placement never leaves it). After a membership
//     change without a data re-sync the other shards may still hold the
//     group's datasets from their boot-time assignment, and for enrichment
//     any capable shard can serve any slice. These answers are cheap and
//     empty in the common case; the best answer wins.
//
// One group, one attempt at a time: a group is carried by at most one
// request or held by one backoff timer, and its next attempt is launched
// only once that one has answered or run out. With split refusing an answer
// that names a group twice, every part of an answer serves groups still
// unsettled, so a summed part is always taken whole (spell.Merge's refusal
// of a dataset claimed twice is the backstop). The price is a replica that
// never answers: each attempt on it waits out the Deadline before failing
// over, until breakerThreshold such failures open its breaker and the walk
// skips it.
//
// The failover, retry and breaker-skip counters count groups, as they did
// when every group travelled alone; requests counts what went over the
// wire.
func fetchGroups[P any](ctx context.Context, c *Coordinator, shards []string, groups [][]string, do requestFn[P]) []groupResult[P] {
	// One cancel for the whole scatter: returning stops any stragglers.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	walks := make([]groupWalk[P], len(groups))
	for gi, owners := range groups {
		w := &walks[gi]
		w.cands = c.orderReplicas(owners)
		w.owners = len(w.cands)
		w.cands = append(w.cands, w.cands[0])
		for _, s := range shards {
			if !slices.Contains(owners, s) {
				w.cands = append(w.cands, s)
			}
		}
	}

	// What the loop below waits for: answers, and backoff timers running out.
	type event struct {
		shard  string
		groups []int // the request's groups; none for a timer
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

	// Launches collect in batch, one entry per shard, until flush sends
	// them; admitted remembers each shard's breaker verdict for the batch,
	// so the groups of one request share one admission (and one half-open
	// probe).
	type launch struct {
		shard  string
		probe  bool
		groups []int
	}
	var batch []launch
	type verdict struct{ ok, probe bool }
	admitted := map[string]verdict{}
	enqueue := func(gi int, shard string, probe bool) {
		for i := range batch {
			if batch[i].shard == shard {
				batch[i].groups = append(batch[i].groups, gi)
				batch[i].probe = batch[i].probe || probe
				return
			}
		}
		batch = append(batch, launch{shard: shard, probe: probe, groups: []int{gi}})
	}
	flush := func() {
		for _, l := range batch {
			pending++
			go func() {
				parts, err := request(ctx, c, l.shard, l.groups, l.probe, do)
				send(event{shard: l.shard, groups: l.groups, parts: parts, err: err})
			}()
		}
		batch = batch[:0]
		clear(admitted)
	}
	// after holds a group's next attempt, then, back for d; then runs on
	// this goroutine, unless the scatter ends first.
	after := func(d time.Duration, then func()) {
		pending++
		go func() {
			ev := event{then: then}
			if !sleepCtx(ctx, d) {
				ev.err = ctx.Err()
			}
			send(ev)
		}()
	}

	// advance walks an unsettled group on to its next attempt, if it has
	// one. It runs only while no request carries the group and no timer
	// holds it. An attempt leaves the group an error or a payload, so a
	// group with neither has never been carried.
	advance := func(gi int) {
		w := &walks[gi]
		for w.next < len(w.cands) && !w.complete() && ctx.Err() == nil {
			i, s := w.next, w.cands[w.next]
			w.next++
			sc := c.counterFor(s)
			var wait time.Duration
			var attempt func()
			if i == w.owners {
				if w.payload != nil {
					continue // answered in part: scavenge, don't re-ask
				}
				retry := w.err != nil // else the floor: no replica was admitted
				if retry {
					wait = retryBackoff.Delay(0, rand.Float64)
				}
				attempt = func() {
					if retry {
						sc.retries.Add(1)
					}
					_, probe := c.breakerAllow(s, true)
					enqueue(gi, s, probe)
				}
			} else {
				// The breaker decides, once per shard and batch. Scavenging
				// is speculative, so a shard known to be sick is not worth
				// the attempt deadline there either.
				v, seen := admitted[s]
				if !seen {
					v.ok, v.probe = c.breakerAllow(s, false)
					admitted[s] = v
				}
				if !v.ok {
					sc.breakerSkips.Add(1)
					continue
				}
				if i > w.owners && w.fails > 0 {
					wait = retryBackoff.Delay(w.fails-1, rand.Float64)
				}
				failover := w.err != nil || w.payload != nil
				attempt = func() {
					if failover {
						sc.failovers.Add(1)
					}
					enqueue(gi, s, v.probe)
				}
			}
			if wait > 0 {
				after(wait, attempt)
			} else {
				attempt()
			}
			return
		}
	}

	for gi := range walks {
		advance(gi)
	}
	flush()
	unsettled := len(walks)
	for pending > 0 && unsettled > 0 {
		ev := <-events
		pending--
		switch {
		case ev.then != nil:
			if ev.err == nil {
				ev.then()
			}
		case ev.err != nil:
			for _, gi := range ev.groups {
				w := &walks[gi]
				if w.err == nil {
					w.err = fmt.Errorf("%s: %w", ev.shard, ev.err)
				}
				if w.next > w.owners+1 {
					w.fails++
				}
			}
		default:
			for _, p := range ev.parts {
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
		// Failed, or incomplete coverage (membership drift): each group the
		// answer leaves unsettled tries its next candidate.
		for _, gi := range ev.groups {
			advance(gi)
		}
		flush()
	}
	results := make([]groupResult[P], len(walks))
	for gi := range walks {
		results[gi] = walks[gi].groupResult
	}
	return results
}
