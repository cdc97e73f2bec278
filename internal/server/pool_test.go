package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolRunUnblocksOnContextCancel: a submitter whose client disconnects
// must stop waiting as soon as its context ends, even while its job is
// stuck behind a busy worker.
func TestPoolRunUnblocksOnContextCancel(t *testing.T) {
	p := NewPool(1, 2)
	defer p.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = p.Run(nil, func() (any, error) { close(started); <-block; return nil, nil })
	}()
	<-started // the single worker is parked

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.Run(ctx, func() (any, error) { return "never", nil })
		done <- err
	}()
	waitUntil(t, "the job in the queue", func() bool { return p.waiting.Load() == 1 })
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not unblock on ctx.Done()")
	}
	close(block)
	wg.Wait()
}

// TestPoolSkipsAbandonedQueuedJobs: a job whose context is canceled while
// it waits in the queue must never execute — its work would be thrown away.
func TestPoolSkipsAbandonedQueuedJobs(t *testing.T) {
	p := NewPool(1, 4)
	defer p.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = p.Run(nil, func() (any, error) { close(started); <-block; return nil, nil })
	}()
	<-started

	var ran atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	var abandoned sync.WaitGroup
	for i := 0; i < 3; i++ {
		abandoned.Add(1)
		go func() {
			defer abandoned.Done()
			_, _ = p.Run(ctx, func() (any, error) { ran.Add(1); return nil, nil })
		}()
	}
	// Wait for the abandoned jobs to be queued, then hang up before the
	// worker can reach them.
	waitUntil(t, "the three jobs queued", func() bool { return p.waiting.Load() == 3 })
	cancel()
	abandoned.Wait()
	close(block)

	// A live job after the abandoned ones proves the worker drained them.
	if v, err := p.Run(nil, func() (any, error) { return "live", nil }); err != nil || v.(string) != "live" {
		t.Fatalf("live job after abandoned ones: %v, %v", v, err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d abandoned jobs executed, want 0", n)
	}
}

// holdSlots fills every one of p's n slots with a job parked until the
// returned release is called; release waits for the jobs to return.
func holdSlots(t *testing.T, p *Pool, n int) (release func()) {
	t.Helper()
	block := make(chan struct{})
	var started, done sync.WaitGroup
	for i := 0; i < n; i++ {
		started.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			_, _ = p.Run(nil, func() (any, error) { started.Done(); <-block; return nil, nil })
		}()
	}
	started.Wait()
	var once sync.Once
	release = func() { once.Do(func() { close(block); done.Wait() }) }
	t.Cleanup(release)
	return release
}

// TestPoolTryRun: TryRun runs its job in a free slot and, with every slot
// held, returns ErrSaturated at once without calling the job.
func TestPoolTryRun(t *testing.T) {
	p := NewPool(1, 4)
	defer p.Close()
	if v, err := p.TryRun(func() (any, error) { return "ran", nil }); err != nil || v.(string) != "ran" {
		t.Fatalf("TryRun with a free slot = %v, %v", v, err)
	}
	release := holdSlots(t, p, 1)
	called := false
	t0 := time.Now()
	if _, err := p.TryRun(func() (any, error) { called = true; return nil, nil }); err != ErrSaturated {
		t.Fatalf("TryRun with every slot held: err = %v, want ErrSaturated", err)
	}
	if called || time.Since(t0) > 100*time.Millisecond {
		t.Fatalf("TryRun with every slot held called the job (%v) or waited (%v)", called, time.Since(t0))
	}
	release()
	if _, err := p.TryRun(func() (any, error) { return nil, nil }); err != nil {
		t.Fatalf("TryRun after the slot freed: %v", err)
	}
}

// TestPoolClose: Close wakes every waiter with ErrClosed, returns only after
// the running job has released its slot, refuses later work and returns at
// once the second time (a server is closed twice during a rolling restart).
func TestPoolClose(t *testing.T) {
	p := NewPool(1, 4)
	release := holdSlots(t, p, 1)
	waiter := make(chan error, 1)
	go func() {
		_, err := p.Run(context.Background(), func() (any, error) { return nil, nil })
		waiter <- err
	}()
	waitUntil(t, "the waiter queued", func() bool { return p.waiting.Load() == 1 })
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	select {
	case err := <-waiter:
		if err != ErrClosed {
			t.Fatalf("waiter woken with %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not wake the waiter")
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a job still held its slot")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return after the running job finished")
	}
	if _, err := p.Run(nil, func() (any, error) { t.Error("job ran after Close"); return nil, nil }); err != ErrClosed {
		t.Fatalf("Run after Close: err = %v, want ErrClosed", err)
	}
	again := make(chan struct{})
	go func() { p.Close(); close(again) }()
	select {
	case <-again:
	case <-time.After(time.Second):
		t.Fatal("a second Close did not return at once")
	}
}

// TestPoolStartsNoGoroutine: a job runs on its submitter's goroutine;
// neither NewPool nor Run starts one.
func TestPoolStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewPool(4, 8)
	defer p.Close()
	inJob := 0
	if _, err := p.Run(nil, func() (any, error) { inJob = runtime.NumGoroutine(); return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); inJob > before || after > before {
		t.Fatalf("goroutines: %d before NewPool, %d inside a job, %d after Run", before, inJob, after)
	}
}

// TestHeatmapAbandonedRequest drives the full handler path with an
// already-canceled request context: the daemon must not render the tile
// and must account the abort as a client-closed-request error.
func TestHeatmapAbandonedRequest(t *testing.T) {
	s, _ := fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, "/api/heatmap?dataset=0&w=64&h=64", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("status = %d, want %d", rec.Code, statusClientClosedRequest)
	}
	// The render never happened, so a later identical request computes it
	// fresh (miss), proving no broken entry was cached either.
	rec2 := get(t, s, "/api/heatmap?dataset=0&w=64&h=64")
	if rec2.Code != http.StatusOK {
		t.Fatalf("follow-up tile = %d", rec2.Code)
	}
}
