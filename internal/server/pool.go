package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

var (
	// ErrSaturated is returned by Pool.Run when every slot is held and the
	// wait line is full, and by Pool.TryRun whenever no slot is free. The
	// heatmap handler maps it to 503: an overloaded daemon sheds load
	// instead of piling up waiters.
	ErrSaturated = errors.New("server: pool saturated")
	// ErrClosed is returned by Run after Close.
	ErrClosed = errors.New("server: pool closed")
)

// Pool is the daemon's one admission mechanism, a counting semaphore: at
// most workers jobs hold a slot at once, each on its submitter's goroutine,
// and at most queue more submitters wait for one; past that Run fails fast
// with ErrSaturated rather than queueing unboundedly. A waiter waits under
// its own context: a client that hangs up before its job took a slot leaves
// at once and the job never runs, so work for a client that is gone never
// steals a slot. Renders and tree builds wait with Run; speculation takes
// idle slots only, with TryRun. The Pool starts no goroutine.
type Pool struct {
	slots   chan struct{} // one token per job holding a slot
	queue   int64
	waiting atomic.Int64
	closed  chan struct{}
	once    sync.Once
}

// NewPool sizes a pool of workers slots and queue waiters. Non-positive
// arguments default to 1 slot and 2×workers waiters.
func NewPool(workers, queue int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queue < 1 {
		queue = 2 * workers
	}
	return &Pool{slots: make(chan struct{}, workers), queue: int64(queue), closed: make(chan struct{})}
}

// Run runs fn in a slot, waiting for one for as long as ctx lives, and
// returns its result. It returns ErrSaturated at once when the wait line is
// full, ErrClosed after Close, and ctx.Err() when the context ends before fn
// took a slot. A nil ctx means context.Background().
func (p *Pool) Run(ctx context.Context, fn func() (any, error)) (any, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case p.slots <- struct{}{}:
		return p.hold(ctx, fn)
	default:
	}
	if p.waiting.Add(1) > p.queue {
		p.waiting.Add(-1)
		return nil, ErrSaturated
	}
	select {
	case p.slots <- struct{}{}:
		p.waiting.Add(-1)
		return p.hold(ctx, fn)
	case <-ctx.Done():
		p.waiting.Add(-1)
		return nil, ctx.Err()
	case <-p.closed:
		p.waiting.Add(-1)
		return nil, ErrClosed
	}
}

// TryRun runs fn only if a slot is free right now, and never waits:
// otherwise it returns ErrSaturated without calling fn.
func (p *Pool) TryRun(fn func() (any, error)) (any, error) {
	select {
	case p.slots <- struct{}{}:
		return p.hold(context.Background(), fn)
	default:
		return nil, ErrSaturated
	}
}

// hold runs fn in the slot its caller just took and gives the slot back,
// converting a panic into an error: a bad render must fail that one
// request, not take the whole daemon down with it.
func (p *Pool) hold(ctx context.Context, fn func() (any, error)) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, err = nil, fmt.Errorf("server: pool job panicked: %v", r)
		}
		<-p.slots
	}()
	if ctx != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return fn()
}

// Running reports how many jobs hold a slot.
func (p *Pool) Running() int { return len(p.slots) }

// Close wakes every waiter with ErrClosed and returns once the running jobs
// have released their slots, which it then keeps: Run after Close is
// ErrClosed, TryRun finds no slot free. It is idempotent.
func (p *Pool) Close() {
	p.once.Do(func() {
		close(p.closed)
		for range cap(p.slots) {
			p.slots <- struct{}{}
		}
	})
}
