package shard

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// This file is the per-group attempt discipline of a scatter: the wire
// call, the per-replica bookkeeping around it (counters, in-flight gauge,
// circuit breaker), replica ordering, and fetchGroup's ordered candidate
// walk (failover, hedge, last-resort retry, scavenge).

// call performs one shard-protocol HTTP exchange, bounded by the attempt
// deadline: method + path against the shard, an optional gob request body,
// a gob response decoded as T (a spell.Partial decodes its own frame inside
// the gob envelope; a frame it rejects is a decode error here, and so an
// ordinary failed attempt). Any non-200 status is an error carrying a
// bounded excerpt of the body; a 404 on the enrichment paths is
// errEnrichUnsupported (no ontology, or an older protocol version).
//
// Whatever the outcome, a bounded remainder of the body is read before it is
// closed: gob stops at the end of its message, and net/http only returns a
// connection to the idle pool once the body has been read to EOF — closing
// short of it costs the next call to this shard a TCP handshake.
func call[T any](ctx context.Context, c *Coordinator, shard, method, path string, body []byte) (*T, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.Deadline)
	defer cancel()
	var reqBody io.Reader
	if body != nil {
		reqBody = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.resolve(shard)+path, reqBody)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", ContentType)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		_, _ = io.CopyN(io.Discard, resp.Body, 64<<10) // best effort: a failure only costs the reuse
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusNotFound && strings.HasPrefix(path, EnrichPath) {
		return nil, errEnrichUnsupported
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("shard status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var out T
	if err := gob.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decoding %s response: %w", path, err)
	}
	return &out, nil
}

// shardCounters is one backend's cumulative scatter accounting, plus its
// circuit breaker (per-replica state lives with per-replica counters).
type shardCounters struct {
	requests     atomic.Int64
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

func (s *shardCounters) observe(d time.Duration, failed bool) {
	s.requests.Add(1)
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

// attemptFn is one endpoint-specific shard attempt: it returns the decoded
// answer and a "missing" score (0 = the group is fully served; higher =
// failover-worthy shortfall, e.g. datasets the serving shard did not hold).
type attemptFn[P any] func(ctx context.Context, shard string) (payload *P, missing int, err error)

// attemptOutcome is what one attempt came back with.
type attemptOutcome[P any] struct {
	shard   string
	hedge   bool
	payload *P
	missing int
	err     error
}

// attempt runs one shard attempt inside its bookkeeping — the in-flight
// gauge p2c reads, the latency/error counters, and the breaker observation
// (probe says the breaker admitted it as the half-open probe).
func attempt[P any](ctx context.Context, c *Coordinator, shard string, probe bool, do attemptFn[P]) attemptOutcome[P] {
	sc := c.counterFor(shard)
	sc.inflight.Add(1)
	t0 := time.Now()
	p, missing, err := do(ctx, shard)
	sc.inflight.Add(-1)
	sc.observe(time.Since(t0), err != nil)
	c.breakerObserve(shard, err, probe)
	return attemptOutcome[P]{shard: shard, payload: p, missing: missing, err: err}
}

// groupResult is one ownership group's scatter outcome: the best answer
// obtained (lowest missing score), which shard served it, and the first
// error met along the way.
type groupResult[P any] struct {
	payload *P
	shard   string
	missing int
	err     error
}

// complete reports whether the group is fully served.
func (g *groupResult[P]) complete() bool { return g.payload != nil && g.missing == 0 }

// take folds one attempt outcome in: the first error is remembered, a
// better answer replaces the best so far.
func (g *groupResult[P]) take(o attemptOutcome[P]) {
	if o.err != nil {
		if g.err == nil {
			g.err = fmt.Errorf("%s: %w", o.shard, o.err)
		}
		return
	}
	if g.payload == nil || o.missing < g.missing {
		g.payload, g.shard, g.missing = o.payload, o.shard, o.missing
	}
}

// fetchGroup runs one ownership group's attempt discipline over an
// endpoint-specific attempt function. The candidates form one ordered
// walk: the group's replicas (orderReplicas: p2c primary first, draining
// last), then every other fleet member. A candidate whose breaker is open
// is skipped (counted); each candidate is tried at most once by the walk.
//
// Owners run concurrently as needed: the primary first; an error or an
// incomplete answer fails over to the next owner; a hedge (if configured)
// duplicates onto the next untried owner too, or onto the primary itself
// when none remain (the single-owner tail-latency hedge). If every owner's
// breaker refused admission, the primary is probed anyway — the
// availability floor. If every owner failed outright, Retry grants the
// primary one extra attempt after a jittered backoff, forced through its
// breaker as a probe: there is nowhere else to send this group.
//
// Only when coverage is still incomplete — which consistent placement never
// triggers — does the walk continue past the owners, sequentially, with a
// growing backoff after failures: after a membership change without a data
// re-sync the other shards may still hold the group's datasets from their
// boot-time assignment (and for enrichment any capable shard can serve any
// slice). These scavenge answers are cheap, cached and empty in the common
// case. The best answer wins.
func fetchGroup[P any](ctx context.Context, c *Coordinator, shards []string, g ownerGroup, do attemptFn[P]) groupResult[P] {
	// One cancel for the whole group: returning stops any stragglers.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	replicas := c.orderReplicas(g.owners)
	inGroup := make(map[string]bool, len(replicas))
	for _, s := range replicas {
		inGroup[s] = true
	}
	cands := replicas
	for _, s := range shards {
		if !inGroup[s] {
			cands = append(cands, s)
		}
	}
	// admit advances the walk to the next candidate before limit whose
	// breaker admits an attempt.
	next := 0
	admit := func(limit int) (shard string, probe, ok bool) {
		for next < limit && ctx.Err() == nil {
			s := cands[next]
			next++
			if ok, probe := c.breakerAllow(s, false); ok {
				return s, probe, true
			}
			c.counterFor(s).breakerSkips.Add(1)
		}
		return "", false, false
	}

	var best groupResult[P]
	// Sized to the most attempts that can be in flight: every replica once,
	// plus the duplicate hedge (or the availability-floor probe).
	resCh := make(chan attemptOutcome[P], len(replicas)+2)
	outstanding := 0
	launch := func(shard string, hedge, probe bool) {
		outstanding++
		go func() {
			o := attempt(ctx, c, shard, probe, do)
			o.hedge = hedge
			resCh <- o
		}()
	}
	launchOwner := func(hedge, failover bool) bool {
		s, probe, ok := admit(len(replicas))
		if !ok {
			return false
		}
		if failover {
			c.counterFor(s).failovers.Add(1)
		}
		if hedge {
			c.counterFor(s).hedges.Add(1)
		}
		launch(s, hedge, probe)
		return true
	}

	if !launchOwner(false, false) && len(replicas) > 0 && ctx.Err() == nil {
		// Availability floor: every replica's breaker refused admission.
		// Force a half-open probe of the primary rather than fail the
		// group without a single attempt.
		_, probe := c.breakerAllow(replicas[0], true)
		launch(replicas[0], false, probe)
	}
	var hedgeC <-chan time.Time
	if c.cfg.HedgeAfter > 0 {
		timer := time.NewTimer(c.cfg.HedgeAfter)
		defer timer.Stop()
		hedgeC = timer.C
	}
	for outstanding > 0 {
		select {
		case o := <-resCh:
			outstanding--
			if o.err == nil && o.hedge {
				c.counterFor(o.shard).hedgeWins.Add(1)
			}
			best.take(o)
			if best.complete() {
				return best
			}
			// Failed, or incomplete coverage (membership drift): try the
			// next replica.
			launchOwner(false, true)
		case <-hedgeC:
			hedgeC = nil
			if ctx.Err() != nil {
				continue
			}
			if !launchOwner(true, false) && len(replicas) > 0 && next >= len(replicas) {
				// Every replica already tried or in flight: duplicate the
				// primary, the legacy tail-latency hedge.
				c.counterFor(replicas[0]).hedges.Add(1)
				launch(replicas[0], true, false)
			}
		}
	}

	if best.payload == nil && c.cfg.Retry && ctx.Err() == nil && len(replicas) > 0 &&
		sleepCtx(ctx, retryBackoff.Delay(0, rand.Float64)) {
		s := replicas[0]
		_, probe := c.breakerAllow(s, true)
		c.counterFor(s).retries.Add(1)
		best.take(attempt(ctx, c, s, probe, do))
	}

	// Scavenging is speculative, so a shard known to be sick (open breaker)
	// is not worth the attempt deadline: admit skips it.
	for fails := 0; !best.complete(); {
		s, probe, ok := admit(len(cands))
		if !ok || (fails > 0 && !sleepCtx(ctx, retryBackoff.Delay(fails-1, rand.Float64))) {
			break
		}
		c.counterFor(s).failovers.Add(1)
		o := attempt(ctx, c, s, probe, do)
		if o.err != nil {
			fails++
		}
		best.take(o)
	}
	return best
}
