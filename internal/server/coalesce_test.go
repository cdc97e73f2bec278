package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFlightGroupCoalesces(t *testing.T) {
	var g flightGroup
	var computes atomic.Int64
	var joins atomic.Int64
	release := make(chan struct{})
	ready := make(chan struct{})

	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i > 0 {
				<-ready // the first goroutine is mid-compute before others join
			}
			v, err, joined := g.Do(context.Background(), "k", func(context.Context) (any, error) {
				computes.Add(1)
				close(ready)
				<-release
				return 42, nil
			})
			if err != nil || v.(int) != 42 {
				t.Errorf("Do = %v, %v", v, err)
			}
			if joined {
				joins.Add(1)
			}
		}(i)
	}
	waitWaiters(t, &g, "k", n) // every joiner is on the flight
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("computed %d times, want exactly 1", got)
	}
	if got := joins.Load(); got != n-1 {
		t.Fatalf("joined = %d, want %d", got, n-1)
	}
}

// TestFlightGroupJoinerHonoursItsContext: a joiner whose own context is
// cancelled while the leader still computes leaves at once with its context's
// error; the leader's result is unaffected and a later caller still gets the
// value. When the last waiter leaves, fn's context is done and the key is
// forgotten, so the next caller computes afresh. No goroutine is left behind.
func TestFlightGroupJoinerHonoursItsContext(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var g flightGroup
	computing := make(chan struct{})
	release := make(chan struct{})
	type result struct {
		v      any
		err    error
		joined bool
	}
	leader := make(chan result, 1)
	go func() {
		v, err, joined := g.Do(context.Background(), "k", func(context.Context) (any, error) {
			close(computing)
			<-release
			return 42, nil
		})
		leader <- result{v, err, joined}
	}()
	<-computing

	ctx, cancel := context.WithCancel(context.Background())
	joiner := make(chan result, 1)
	go func() {
		v, err, joined := g.Do(ctx, "k", func(context.Context) (any, error) { return nil, errors.New("joiner computed") })
		joiner <- result{v, err, joined}
	}()
	waitWaiters(t, &g, "k", 2)
	cancel()
	select {
	case r := <-joiner:
		if r.err != context.Canceled || !r.joined || r.v != nil {
			t.Fatalf("cancelled joiner = %+v, want a joined context.Canceled", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled joiner still waits for the leader")
	}

	// A live joiner, and the leader itself, still get the leader's value.
	live := make(chan result, 1)
	go func() {
		v, err, joined := g.Do(context.Background(), "k", func(context.Context) (any, error) { return 7, nil })
		live <- result{v, err, joined}
	}()
	waitWaiters(t, &g, "k", 2) // the leader and the live joiner
	close(release)
	if r := <-leader; r.err != nil || r.joined || r.v.(int) != 42 {
		t.Fatalf("leader = %+v, want 42 computed", r)
	}
	if r := <-live; r.err != nil || !r.joined || r.v.(int) != 42 {
		t.Fatalf("later caller = %+v, want the leader's 42, joined", r)
	}

	// The leader and its joiner both leave: fn's context ends only with the
	// last of them, and the key is free before fn has returned.
	leaderCtx, leaderLeaves := context.WithCancel(context.Background())
	entered, ended, finish := make(chan struct{}), make(chan struct{}), make(chan struct{})
	abandoned := make(chan result, 1)
	go func() {
		v, err, joined := g.Do(leaderCtx, "k", func(ctx context.Context) (any, error) {
			close(entered)
			<-ctx.Done()
			close(ended)
			<-finish
			return nil, ctx.Err()
		})
		abandoned <- result{v, err, joined}
	}()
	<-entered
	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		v, err, joined := g.Do(ctx, "k", func(context.Context) (any, error) { return nil, errors.New("joiner computed") })
		joiner <- result{v, err, joined}
	}()
	waitWaiters(t, &g, "k", 2)
	cancel()
	if r := <-joiner; r.err != context.Canceled || !r.joined {
		t.Fatalf("cancelled joiner = %+v, want a joined context.Canceled", r)
	}
	select {
	case <-ended:
		t.Fatal("fn's context ended while its leader still waited")
	case <-time.After(20 * time.Millisecond):
	}
	leaderLeaves()
	select {
	case <-ended:
	case <-time.After(5 * time.Second):
		t.Fatal("fn's context outlived the last waiter")
	}
	if v, err, joined := g.Do(context.Background(), "k", func(context.Context) (any, error) { return 7, nil }); err != nil || joined || v.(int) != 7 {
		t.Fatalf("caller after the last waiter left = %v, %v, joined %v; want 7 computed afresh", v, err, joined)
	}
	close(finish)
	if r := <-abandoned; r.err != context.Canceled || r.joined {
		t.Fatalf("abandoned leader = %+v, want its flight's context.Canceled", r)
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the flight", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitWaiters waits until key's flight has n waiters, the leader included.
func waitWaiters(t *testing.T, g *flightGroup, key string, n int) {
	t.Helper()
	waitUntil(t, fmt.Sprintf("%d waiters on flight %q", n, key), func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		c := g.calls[key]
		return c != nil && c.waiters == n
	})
}

// waitFlight waits until g holds exactly one flight and returns its key.
func waitFlight(t *testing.T, g *flightGroup) (key string) {
	t.Helper()
	waitUntil(t, "one flight open", func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		for k := range g.calls {
			key = k
		}
		return len(g.calls) == 1
	})
	return key
}

func TestFlightGroupSequentialCallsRecompute(t *testing.T) {
	var g flightGroup
	n := 0
	for i := 0; i < 3; i++ {
		v, err, joined := g.Do(context.Background(), "k", func(context.Context) (any, error) { n++; return n, nil })
		if err != nil || joined {
			t.Fatalf("call %d: err=%v joined=%v", i, err, joined)
		}
		if v.(int) != i+1 {
			t.Fatalf("call %d returned %v", i, v)
		}
	}
}

func TestFlightGroupPropagatesErrors(t *testing.T) {
	var g flightGroup
	boom := errors.New("boom")
	_, err, _ := g.Do(context.Background(), "k", func(context.Context) (any, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

// TestFlightGroupSurvivesPanic: a panicking computation must not wedge the
// key — later callers get a fresh flight, concurrent joiners get the error.
func TestFlightGroupSurvivesPanic(t *testing.T) {
	var g flightGroup
	_, err, _ := g.Do(context.Background(), "k", func(context.Context) (any, error) { panic("kaboom") })
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic not converted to error: %v", err)
	}
	v, err, joined := g.Do(context.Background(), "k", func(context.Context) (any, error) { return "recovered", nil })
	if err != nil || joined || v.(string) != "recovered" {
		t.Fatalf("key wedged after panic: %v, %v, %v", v, err, joined)
	}
}

func TestPoolSurvivesPanickingJob(t *testing.T) {
	p := NewPool(1, 2)
	defer p.Close()
	if _, err := p.Run(nil, func() (any, error) { panic("tile bug") }); err == nil {
		t.Fatal("panic not converted to error")
	}
	// The worker must still be alive for the next job.
	v, err := p.Run(nil, func() (any, error) { return "alive", nil })
	if err != nil || v.(string) != "alive" {
		t.Fatalf("worker died after panic: %v, %v", v, err)
	}
}

func TestPoolRunsJobs(t *testing.T) {
	p := NewPool(2, 8)
	defer p.Close()
	v, err := p.Run(nil, func() (any, error) { return "done", nil })
	if err != nil || v.(string) != "done" {
		t.Fatalf("Run = %v, %v", v, err)
	}
}

func TestPoolShedsWhenSaturated(t *testing.T) {
	p := NewPool(1, 1)
	block := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _ = p.Run(nil, func() (any, error) { close(started); <-block; return nil, nil })
	}()
	<-started // the single worker is now parked on block
	go func() {
		defer wg.Done()
		_, _ = p.Run(nil, func() (any, error) { return nil, nil })
	}()
	// Wait for the filler job to occupy the one queue slot.
	for i := 0; p.waiting.Load() == 0 && i < 2000; i++ {
		time.Sleep(time.Millisecond)
	}
	if p.waiting.Load() == 0 {
		t.Fatal("queue slot never filled")
	}
	// Worker busy + queue full: the next submission must shed, not block.
	if _, err := p.Run(nil, func() (any, error) { return nil, nil }); err != ErrSaturated {
		t.Fatalf("err = %v, want ErrSaturated", err)
	}
	close(block)
	wg.Wait()
	p.Close()
}
