package shard

import (
	"context"
	"time"
)

// Backoff shapes a jittered exponential delay schedule. It is shared by
// everything in the scatter path that must wait before trying again: the
// per-group last-resort retry, scavenge attempts after a failure, and the
// circuit breaker's open window before a half-open probe. The zero value
// is invalid; fill every field.
type Backoff struct {
	// Base is the attempt-0 delay before jitter.
	Base time.Duration
	// Max caps the grown delay before jitter.
	Max time.Duration
	// Factor is the per-attempt growth multiplier (≥ 1).
	Factor float64
}

// The scatter path's two schedules and the breaker's trip point. They used
// to be Config knobs; no deployment, test or benchmark ever set them, so
// they are fixed. Retry delays sit under typical attempt deadlines so a
// backed-off retry still fits the same scatter; breaker windows grow into
// seconds because they gate a *shard*, not one query.
var (
	// retryBackoff shapes the jittered delay before the last-resort group
	// retry and between failed scavenge attempts: an immediate retry just
	// re-dials a still-sick shard, a short backoff lets transient faults
	// clear.
	retryBackoff = Backoff{Base: 50 * time.Millisecond, Max: time.Second, Factor: 2}
	// breakerBackoff shapes a tripped breaker's open window, growing with
	// consecutive trips.
	breakerBackoff = Backoff{Base: 200 * time.Millisecond, Max: 15 * time.Second, Factor: 2}
)

// breakerThreshold is the consecutive-failure count that trips a replica's
// circuit breaker open. While open, scatter attempts skip the replica — its
// groups are served by the other replicas — until the breakerBackoff window
// elapses and a half-open probe is admitted.
const breakerThreshold = 3

// Delay returns the attempt-th delay: min(Max, Base·Factor^attempt) scaled
// by a jitter in [0.5, 1.5) drawn from rnd (a func returning [0, 1)). The
// full-range jitter decorrelates retry storms across groups and
// coordinators; rnd is a parameter, not package state, so schedules are
// reproducible in tests. A nil rnd skips jitter.
func (b Backoff) Delay(attempt int, rnd func() float64) time.Duration {
	d := float64(b.Base)
	for i := 0; i < attempt; i++ {
		d *= b.Factor
		if d >= float64(b.Max) {
			break
		}
	}
	if d > float64(b.Max) {
		d = float64(b.Max)
	}
	if rnd != nil {
		d *= 0.5 + rnd()
	}
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}

// sleepCtx waits for d or the context, whichever ends first, and reports
// whether the full delay elapsed (false: the caller should stop retrying).
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
