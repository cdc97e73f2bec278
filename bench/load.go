package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the load generator: C client goroutines, each with its own
// persistent connection, carry every phase. There is never more than one
// request per connection in flight, so the client side never measures its
// own scheduler the way one-goroutine-per-request drivers do on two cores.

// sample is what the client saw of one op. Times are offsets from the
// phase start.
type sample struct {
	due    time.Duration // when the plan wanted it sent (closed loop: when it was picked)
	picked time.Duration // when a free connection took it
	sent   time.Duration
	done   time.Duration

	status   int
	disp     string // X-Forestview-Cache: hit, miss, coalesced, prefetched
	degraded bool
	level    int    // X-Forestview-Level of a tile, -1 otherwise
	err      string // transport error
	body     []byte // kept only for ops the verifier checks
	// wrong is set by the verifier: the answer disagreed with the library.
	wrong string
}

// latency is what a user waited: from the moment the request was due.
func (s *sample) latency() time.Duration { return s.done - s.due }

// lateness is the generator's own delay: how long after both the due time
// and a connection being free the request actually left.
func (s *sample) lateness() time.Duration { return s.sent - max(s.due, s.picked) }

// ok reports a served, complete, undegraded answer (the verifier may still
// find it wrong).
func (s *sample) ok() bool {
	return s.err == "" && s.status >= 200 && s.status < 300 && !s.degraded
}

func (s *sample) warm() bool {
	return s.disp == "hit" || s.disp == "prefetched" || s.disp == "coalesced"
}

// doFunc performs op i on connection conn and fills the outcome fields of
// s; the loops own the timing fields.
type doFunc func(conn, i int, s *sample)

// runOpen drives an open loop: op i is due at due[i] whatever happened to
// the ops before it. The first free connection takes the next op, waits
// for its due time if that is still ahead, and sends; when every
// connection is busy the op waits, and because latency counts from the due
// time that wait is charged to the server that caused it.
func runOpen(due []time.Duration, conns int, do doFunc) []sample {
	samples := make([]sample, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				s := &samples[i]
				s.due = due[i]
				s.picked = time.Since(start)
				if wait := s.due - s.picked; wait > 0 {
					time.Sleep(wait)
				}
				s.sent = time.Since(start)
				do(c, i, s)
				s.done = time.Since(start)
			}
		}(c)
	}
	wg.Wait()
	return samples
}

// runClosed drives a closed loop for d: conns clients, each sending its
// next op the moment its previous one completed. It returns the samples of
// the ops that were started and how long the phase ran: d, or less when
// the n-op plan ran out first.
func runClosed(n int, d time.Duration, conns int, do doFunc) ([]sample, time.Duration) {
	samples := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := &samples[i]
				s.picked = time.Since(start)
				s.due, s.sent = s.picked, s.picked
				do(c, i, s)
				s.done = time.Since(start)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	started := min(int(next.Load()), n)
	if started < n || elapsed > d {
		// The deadline ended the phase; an op still in flight then is not a
		// completion of the phase.
		elapsed = d
	}
	return samples[:started], elapsed
}

// httpClient issues ops over conns persistent connections, one per client
// goroutine.
type httpClient struct {
	base  string
	conns []*http.Client
}

func newHTTPClient(base string, conns int) *httpClient {
	hc := &httpClient{base: base}
	for i := 0; i < conns; i++ {
		hc.conns = append(hc.conns, &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return hc
}

func (hc *httpClient) close() {
	for _, c := range hc.conns {
		c.CloseIdleConnections()
	}
}

// get fetches path on connection conn into s; keep retains the body.
func (hc *httpClient) get(conn int, path string, keep bool, s *sample) {
	s.level = -1
	resp, err := hc.conns[conn].Get(hc.base + path)
	if err != nil {
		s.err = err.Error()
		return
	}
	defer resp.Body.Close()
	if keep {
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		s.body = buf.Bytes()
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	if err != nil {
		s.err = fmt.Sprintf("reading body: %v", err)
		return
	}
	s.status = resp.StatusCode
	s.disp = resp.Header.Get("X-Forestview-Cache")
	s.degraded = resp.Header.Get("X-Forestview-Degraded") == "true"
	if v := resp.Header.Get("X-Forestview-Level"); v != "" {
		s.level, _ = strconv.Atoi(v) // a daemon-written integer
	}
}

// doer is the doFunc of a phase over ops: every verifyEvery-th response
// keeps its body for the verifier.
func (hc *httpClient) doer(ops []op) doFunc {
	return func(conn, i int, s *sample) {
		hc.get(conn, ops[i].path, i%verifyEvery == 0, s)
	}
}
