package shard

import (
	"sync"
	"time"
)

// breaker is one replica's circuit breaker. It replaces "keep dialing a
// dead shard at full query rate" with the classic three-state machine:
//
//	closed    — attempts flow; consecutive failures count up.
//	open      — attempts are skipped for a backoff window (jittered
//	            exponential in the consecutive trip count), so a dead
//	            replica costs the scatter nothing while its group is
//	            served by the other replicas.
//	half-open — after the window, exactly one probe attempt is admitted;
//	            success closes the breaker, failure re-opens it with a
//	            longer window.
//
// The scatter keeps an availability floor above the breaker: when a group
// has *no* admitted replica, fetchGroups' forced step probes the primary
// rather than fail the group without trying (allow with lastResort=true).
// A canceled attempt (the caller hung up) never counts — see
// breakerObserve.
type breaker struct {
	mu       sync.Mutex
	state    breakerState
	fails    int // consecutive failures while closed
	openedAt time.Time
	wait     time.Duration // current open window
	probing  bool          // a half-open probe is in flight
	opens    int           // consecutive trips without an intervening success
	trips    int64         // cumulative trips, for /api/stats
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// allow reports whether an attempt may proceed now, and whether that
// attempt is a half-open probe (its outcome settles the breaker).
// lastResort forces admission even inside the open window — the caller
// has nowhere else to send the group — by converting the attempt into a
// probe.
func (b *breaker) allow(now time.Time, lastResort bool) (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		if now.Sub(b.openedAt) >= b.wait || lastResort {
			b.state = breakerHalfOpen
			b.probing = true
			return true, true
		}
		return false, false
	case breakerHalfOpen:
		if b.probing && !lastResort {
			return false, false // one probe at a time
		}
		b.probing = true
		return true, true
	default:
		return true, false
	}
}

// observe records an attempt outcome. threshold is the consecutive-failure
// trip point; window returns the open duration for the n-th consecutive
// trip. Returns true when this observation tripped the breaker open.
func (b *breaker) observe(success, probe bool, now time.Time, threshold int, window func(opens int) time.Duration) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
	}
	if success {
		b.state = breakerClosed
		b.fails = 0
		b.opens = 0
		return false
	}
	switch b.state {
	case breakerClosed:
		b.fails++
		if b.fails < threshold {
			return false
		}
	case breakerHalfOpen:
		if !probe {
			// A straggler launched before the trip; the probe's outcome is
			// the one that settles the state.
			return false
		}
	case breakerOpen:
		return false // stale straggler; already open
	}
	b.state = breakerOpen
	b.openedAt = now
	b.fails = 0
	b.opens++
	b.trips++
	b.wait = window(b.opens - 1)
	return true
}

// clearProbe releases the half-open probe slot without judging the shard
// (the probe was canceled, not answered).
func (b *breaker) clearProbe() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// snapshot returns the state name and cumulative trip count for stats.
func (b *breaker) snapshot() (string, int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state.String(), b.trips
}
