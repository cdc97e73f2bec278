package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// flightGroup implements request coalescing (the singleflight pattern):
// when many goroutines ask for the same key at once, exactly one executes
// the computation and the rest wait until it finishes and share its
// result: a burst of identical queries costs one SPELL search, one
// enrichment pass, one tile render or one pane clustering, never N. A
// flight belongs to its waiters: it runs under its own context, detached
// from every request, which ends (and the key is forgotten) only when the
// last waiter has left, so no client's hangup fails another's request.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	ctx     context.Context // the flight's own, ended by cancel
	cancel  context.CancelFunc
	done    chan struct{} // closed once val and err are final
	val     any
	err     error
	waiters int // callers still waiting, leader included; under the group's mu
}

// Do executes fn under key, coalescing concurrent duplicate calls; joined
// reports that this caller waited on another's flight. A caller whose ctx
// is done starts nothing; a joiner waits only while its ctx lives; the
// leader runs fn, which must honor the flight's context, on its own
// goroutine, and its ctx ending only drops its interest. A caller whose ctx
// ended answers its context's error, however the flight ended.
func (g *flightGroup) Do(ctx context.Context, key string, fn func(context.Context) (any, error)) (val any, err error, joined bool) {
	if err := ctx.Err(); err != nil {
		return nil, err, false
	}
	c, led := g.open(ctx, key, true)
	if !led {
		select {
		case <-c.done:
			return c.val, c.err, true
		case <-ctx.Done():
			g.leave(key, c)
			return nil, ctx.Err(), true
		}
	}
	defer context.AfterFunc(ctx, func() { g.leave(key, c) })()
	g.run(key, c, fn)
	if err := ctx.Err(); err != nil {
		return nil, err, false
	}
	return c.val, c.err, false
}

// lead runs fn under key as Do's leader would, unless key is in flight:
// then it returns at once with led false. No hangup reaches its flight.
func (g *flightGroup) lead(key string, fn func(context.Context) (any, error)) (val any, err error, led bool) {
	c, led := g.open(context.Background(), key, false)
	if !led {
		return nil, nil, false
	}
	g.run(key, c, fn)
	return c.val, c.err, true
}

// open returns key's flight, joined if join is set, or opens one led by
// the caller under a context with ctx's values and not its cancellation.
func (g *flightGroup) open(ctx context.Context, key string, join bool) (c *flightCall, led bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		if join {
			c.waiters++
		}
		return c, false
	}
	if g.calls == nil {
		g.calls = make(map[string]*flightCall)
	}
	c = &flightCall{done: make(chan struct{}), waiters: 1}
	c.ctx, c.cancel = context.WithCancel(context.WithoutCancel(ctx))
	g.calls[key] = c
	return c, true
}

// run executes fn for c and publishes its outcome; a panic in fn becomes
// the flight's error instead of wedging the key.
func (g *flightGroup) run(key string, c *flightCall, fn func(context.Context) (any, error)) {
	defer func() {
		if r := recover(); r != nil {
			c.err = fmt.Errorf("server: query computation panicked: %v", r)
		}
		g.mu.Lock()
		g.forget(key, c)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn(c.ctx)
}

// leave drops one waiter; the last to leave ends the flight.
func (g *flightGroup) leave(key string, c *flightCall) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c.waiters--; c.waiters == 0 {
		g.forget(key, c)
	}
}

// forget unmaps c, unless a newer flight holds key, and ends it. g.mu is held.
func (g *flightGroup) forget(key string, c *flightCall) {
	if g.calls[key] == c {
		delete(g.calls, key)
	}
	c.cancel()
}

// coalesce is the daemon's concurrency discipline in one place, shared by
// every compute path (searches, enrichments, tiles, scatters, pane trees):
// lookup, then coalesced computation, then fill. load and store are the
// place the value is kept between requests: the shared LRU for everything
// evictable (cachedCompute), a pane's own pointer for its clustered tree,
// which a burst of tiles must never evict. Errors are never stored, but
// concurrent identical failures still compute only once. compute runs
// under the flight's context, so a caller sees a context error only when
// its own context ended. The disposition says which layer answered, and
// ep's counters agree: every call ends in one hit, one join or one
// computation. A function because Go methods cannot take type parameters.
func coalesce[T any](ctx context.Context, g *flightGroup, ep *endpointStats, key string,
	load func() (T, bool), store func(T), compute func(context.Context) (T, error)) (T, string, error) {
	if v, ok := load(); ok {
		ep.cacheHits.Add(1)
		return v, dispHit, nil
	}
	ep.cacheMisses.Add(1)
	computed := false // written only by a leader, on this goroutine
	v, err, joined := g.Do(ctx, key, func(ctx context.Context) (any, error) {
		// Re-check under the flight: a caller that missed just as the
		// previous flight completed must find that flight's result here
		// rather than compute again.
		if v, ok := load(); ok {
			return v, nil
		}
		ep.computed.Add(1)
		computed = true
		v, err := compute(ctx)
		if err == nil {
			store(v)
		}
		return v, err
	})
	// A panicking compute surfaces as an error with a nil value.
	val, _ := v.(T)
	switch {
	case joined:
		ep.coalesced.Add(1)
		return val, dispCoalesced, err
	case computed || err != nil:
		return val, dispMiss, err
	default: // we led, but the re-check hit: the previous flight stored it
		ep.cacheHits.Add(1)
		return val, dispHit, nil
	}
}

// isContextErr reports whether err is (or wraps) a context cancellation or
// deadline — an aborted computation, not a failed one.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
