// Package faultline is a deterministic fault injector for the shard
// fleet's HTTP paths: an http.RoundTripper wrapper that perturbs matched
// requests with latency spikes, 5xx responses, connection resets,
// truncated bodies and stalls — on a schedule that is a pure function of
// the seed and the per-(host, path) request ordinal. The same seed and
// the same per-key request sequence always draw the same faults, so a
// chaos failure reproduces under `-run` instead of flaking: robustness
// tests assert exact behavior under exact faults, not vibes under noise.
//
// Determinism is per key, not global: concurrent requests to *different*
// shards or endpoints interleave freely without perturbing each other's
// schedules, because each (host, path) pair owns an independent counter
// and RNG stream derived from the seed.
package faultline

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind names one fault class.
type Kind int

const (
	// None: the request passes through untouched.
	None Kind = iota
	// Latency: delay the request by the rule's Delay, then pass through.
	// Models a slow-but-healthy replica (GC pause, noisy neighbour).
	Latency
	// Err5xx: answer 503 without touching the transport. Models an
	// overloaded or restarting server that still speaks HTTP.
	Err5xx
	// Reset: fail with a connection error before any response. Models a
	// killed process or a dropped TCP connection.
	Reset
	// Truncate: pass the request through, then cut the response body in
	// half. Models a connection dying mid-transfer; the client's decoder
	// sees a short body, exercising the decode-error path rather than the
	// transport-error path.
	Truncate
	// Stall: hold the request until the rule's Delay elapses or the
	// request context dies, then fail it. Models a black-holed server —
	// the case deadlines and hedges exist for.
	Stall
)

// String names the kind for schedules and logs.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Latency:
		return "latency"
	case Err5xx:
		return "err5xx"
	case Reset:
		return "reset"
	case Truncate:
		return "truncate"
	case Stall:
		return "stall"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Rule matches a slice of the request space and describes how often and
// how to fault it. Zero-valued match fields match everything.
type Rule struct {
	// Host matches the request URL's Host (exact, or a suffix when the
	// pattern starts with "*"). Empty matches every host.
	Host string
	// Path matches the URL path by prefix. Empty matches every path.
	Path string
	// Every faults the Nth, 2Nth, ... matching request per key (after
	// Offset). 1 faults every request; 0 disables ordinal faulting and
	// uses Prob instead.
	Every int
	// Offset shifts the Every schedule: the first faulted request per key
	// is request number Offset+Every (1-based).
	Offset int
	// Prob faults each matching request independently with this
	// probability, drawn from the key's own seeded RNG stream (used when
	// Every is 0). Still deterministic: the Nth draw per key is fixed.
	Prob float64
	// Kinds cycles through these fault kinds in order as the key's faults
	// fire (fault number f gets Kinds[f mod len]). Empty means Err5xx.
	Kinds []Kind
	// Delay is the added latency for Latency faults and the hold time for
	// Stall faults (default 50ms / 2s respectively when zero).
	Delay time.Duration
}

func (r *Rule) matches(host, path string) bool {
	if r.Host != "" {
		if h, ok := strings.CutPrefix(r.Host, "*"); ok {
			if !strings.HasSuffix(host, h) {
				return false
			}
		} else if r.Host != host {
			return false
		}
	}
	return r.Path == "" || strings.HasPrefix(path, r.Path)
}

// Injector is a deterministic fault source over a rule set. Safe for
// concurrent use; per-key state (ordinal counter, RNG stream, fault
// cycle position) is isolated so concurrency cannot reorder a key's
// schedule.
type Injector struct {
	seed int64

	mu    sync.Mutex
	rules []Rule
	keys  map[string]*keyState

	// Counters per fault kind, for test gates ("the injector actually
	// fired") and chaos envelopes.
	injected [Stall + 1]atomic.Int64
}

type keyState struct {
	mu     sync.Mutex
	n      int        // requests seen for this key
	faults int        // faults fired for this key (cycles Kinds)
	rnd    *rand.Rand // per-key stream: derived from (seed, key)
}

// New builds an injector over the rules. The seed fixes every schedule.
func New(seed int64, rules ...Rule) *Injector {
	return &Injector{seed: seed, rules: rules, keys: make(map[string]*keyState)}
}

// SetRules replaces the rule set (for harnesses that learn hosts after
// boot). Per-key counters and RNG streams survive the swap: determinism
// is anchored to the request sequence, not the rule set's lifetime.
func (in *Injector) SetRules(rules ...Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = rules
}

// Counts reports how many faults of each kind have fired.
func (in *Injector) Counts() map[string]int64 {
	out := make(map[string]int64)
	for k := Latency; k <= Stall; k++ {
		if n := in.injected[k].Load(); n > 0 {
			out[k.String()] = n
		}
	}
	return out
}

// Total reports the total faults fired across kinds.
func (in *Injector) Total() int64 {
	var n int64
	for k := Latency; k <= Stall; k++ {
		n += in.injected[k].Load()
	}
	return n
}

func (in *Injector) key(host, path string) *keyState {
	k := host + "\x1f" + path
	in.mu.Lock()
	defer in.mu.Unlock()
	ks, ok := in.keys[k]
	if !ok {
		// Derive the key's RNG stream from (seed, key) with a stable hash:
		// maphash with a fixed Seed would vary per process, so fold the
		// bytes through the injector seed by hand (FNV-style).
		h := uint64(in.seed)
		for i := 0; i < len(k); i++ {
			h = (h ^ uint64(k[i])) * 1099511628211
		}
		ks = &keyState{rnd: rand.New(rand.NewSource(int64(h)))}
		in.keys[k] = ks
	}
	return ks
}

// Decide consumes one request ordinal for (host, path) and returns the
// fault (with its rule) that request draws. Exposed for determinism
// tests; Wrap's transport calls it for every request.
func (in *Injector) Decide(host, path string) (Kind, Rule) {
	in.mu.Lock()
	rules := in.rules
	in.mu.Unlock()
	var rule *Rule
	for i := range rules {
		if rules[i].matches(host, path) {
			rule = &rules[i]
			break
		}
	}
	if rule == nil {
		return None, Rule{}
	}
	ks := in.key(host, path)
	ks.mu.Lock()
	defer ks.mu.Unlock()
	ks.n++
	fire := false
	if rule.Every > 0 {
		n := ks.n - rule.Offset
		fire = n > 0 && n%rule.Every == 0
	} else if rule.Prob > 0 {
		fire = ks.rnd.Float64() < rule.Prob
	}
	if !fire {
		return None, *rule
	}
	kind := Err5xx
	if len(rule.Kinds) > 0 {
		kind = rule.Kinds[ks.faults%len(rule.Kinds)]
	}
	ks.faults++
	return kind, *rule
}

// Header marks injected responses so envelopes (and humans with curl)
// can tell a synthetic fault from a real failure.
const Header = "X-Faultline"

// errReset is the transport error Reset faults fail with.
var errReset = errors.New("faultline: connection reset")

// transport is the injecting RoundTripper.
type transport struct {
	in   *Injector
	next http.RoundTripper
}

// Wrap returns a RoundTripper that injects the injector's faults in
// front of next (http.DefaultTransport when nil).
func (in *Injector) Wrap(next http.RoundTripper) http.RoundTripper {
	if next == nil {
		next = http.DefaultTransport
	}
	return &transport{in: in, next: next}
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	kind, rule := t.in.Decide(req.URL.Host, req.URL.Path)
	switch kind {
	case None:
		return t.next.RoundTrip(req)
	case Latency:
		d := rule.Delay
		if d <= 0 {
			d = 50 * time.Millisecond
		}
		select {
		case <-time.After(d):
		case <-req.Context().Done():
			t.in.injected[Latency].Add(1)
			return nil, req.Context().Err()
		}
		t.in.injected[Latency].Add(1)
		return t.next.RoundTrip(req)
	case Err5xx:
		t.in.injected[Err5xx].Add(1)
		if req.Body != nil {
			req.Body.Close()
		}
		body := "faultline: injected 503\n"
		resp := &http.Response{
			StatusCode: http.StatusServiceUnavailable,
			Status:     "503 Service Unavailable (faultline)",
			Proto:      req.Proto, ProtoMajor: req.ProtoMajor, ProtoMinor: req.ProtoMinor,
			Header:        http.Header{Header: []string{Err5xx.String()}},
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}
		return resp, nil
	case Reset:
		t.in.injected[Reset].Add(1)
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errReset
	case Truncate:
		resp, err := t.next.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		t.in.injected[Truncate].Add(1)
		return truncateBody(resp), nil
	case Stall:
		d := rule.Delay
		if d <= 0 {
			d = 2 * time.Second
		}
		if req.Body != nil {
			req.Body.Close()
		}
		select {
		case <-time.After(d):
		case <-req.Context().Done():
		}
		t.in.injected[Stall].Add(1)
		if err := req.Context().Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("faultline: stalled %v, then reset", d)
	default:
		return t.next.RoundTrip(req)
	}
}

// truncateBody replaces the response body with its first half, fixing
// Content-Length so the client reads a clean-but-short body, which its
// decoder rejects, exactly like a connection dying mid-transfer without the
// transport noticing.
func truncateBody(resp *http.Response) *http.Response {
	full, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		resp.Body = io.NopCloser(bytes.NewReader(nil))
		resp.ContentLength = 0
		return resp
	}
	half := full[:len(full)/2]
	resp.Body = io.NopCloser(bytes.NewReader(half))
	resp.ContentLength = int64(len(half))
	resp.Header.Set("Content-Length", fmt.Sprint(len(half)))
	resp.Header.Set(Header, Truncate.String())
	return resp
}
