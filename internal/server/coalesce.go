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
// result. Under coalesce it gives the daemon its concurrency
// discipline — a burst of identical queries costs one SPELL search, one
// enrichment pass, one tile render or one pane clustering, never N.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{} // closed once val and err are final
	val  any
	err  error
}

// Do executes fn under key, coalescing concurrent duplicate calls. joined
// reports whether this caller piggybacked on another goroutine's in-flight
// computation instead of running fn itself. A joiner waits only as long as
// its own ctx lives: a client that hangs up leaves the flight (with its
// context's error) and the leader's result is none the worse for it. fn is
// expected to honor the leader's context by itself.
func (g *flightGroup) Do(ctx context.Context, key string, fn func() (any, error)) (val any, err error, joined bool) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*flightCall)
	}
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, c.err, true
		case <-ctx.Done():
			return nil, ctx.Err(), true
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	func() {
		// Cleanup is deferred so a panicking fn cannot wedge the key and
		// leak every future caller onto a flight that never completes. The
		// panic itself becomes an error shared by leader and joiners alike.
		defer func() {
			if r := recover(); r != nil {
				c.err = fmt.Errorf("server: query computation panicked: %v", r)
			}
			g.mu.Lock()
			delete(g.calls, key)
			g.mu.Unlock()
			close(c.done)
		}()
		c.val, c.err = fn()
	}()
	return c.val, c.err, false
}

// coalesce is the daemon's concurrency discipline in one place, shared by
// every compute path (searches, enrichments, tiles, scatters, pane trees):
// lookup, then coalesced computation, then fill. load and store are the
// place the value is kept between requests: the shared LRU for everything
// evictable (cachedCompute), a pane's own pointer for its clustered tree,
// which a burst of tiles must never evict. Errors
// are never stored (a transiently bad query must not poison the place), but
// concurrent identical failures still compute only once. compute is
// expected to honor ctx; because followers share the leader's flight — and
// therefore the leader's context — a caller whose joined flight died of a
// context error that is not its own (the *leader's* client disconnected)
// retries with its own live context, becoming the new leader instead of
// failing an innocent request; after maxAttempts dead leaders it returns
// that context error, which every handler sheds as a 503 "interrupted". The
// disposition says which layer answered the final attempt, and ep's
// counters agree with it: every attempt ends in one hit, one join or one
// computation. A package-level function because Go methods cannot take type
// parameters; flightGroup stays any-valued underneath.
func coalesce[T any](ctx context.Context, g *flightGroup, ep *endpointStats, key string,
	load func() (T, bool), store func(T), compute func() (T, error)) (T, string, error) {
	const maxAttempts = 3
	var (
		val  T
		disp string
		err  error
	)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			ep.retries.Add(1)
		}
		if v, ok := load(); ok {
			ep.cacheHits.Add(1)
			return v, dispHit, nil
		}
		ep.cacheMisses.Add(1)
		// computed is written only when this caller leads the flight (a joiner's
		// closure never runs), so reading it after Do is race-free.
		computed := false
		v, ferr, joined := g.Do(ctx, key, func() (any, error) {
			// Re-check under the flight: a caller that missed just as the
			// previous flight completed must find that flight's result here
			// rather than compute again.
			if v, ok := load(); ok {
				return v, nil
			}
			ep.computed.Add(1)
			computed = true
			v, err := compute()
			if err == nil {
				store(v)
			}
			return v, err
		})
		// A panicking compute surfaces as an error with a nil value.
		val, _ = v.(T)
		err = ferr
		switch {
		case joined:
			ep.coalesced.Add(1)
			disp = dispCoalesced
		case !computed:
			// We led a flight but its re-check hit: the previous flight stored
			// its value between our miss and our entry. For the client that's a
			// hit — no computation ran on its behalf — and the second lookup is
			// counted as one.
			ep.cacheHits.Add(1)
			disp = dispHit
		default:
			disp = dispMiss
		}
		// A joined flight shed by its leader's admission (a speculation finds
		// no idle render slot) is not this caller's refusal either.
		if err == nil || ctx.Err() != nil || !isContextErr(err) && !(joined && errors.Is(err, ErrSaturated)) {
			break
		}
	}
	return val, disp, err
}

// isContextErr reports whether err is (or wraps) a context cancellation or
// deadline — an aborted computation, not a failed one.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
