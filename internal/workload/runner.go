package workload

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// maxIdleConns is the runner's idle pool per target. An open-loop run has
// as many requests in flight as the server is slow; net/http's default of
// 2 closes every connection beyond that on return and re-dials it for the
// next arrival.
const maxIdleConns = 256

// Run replays plan against baseURL open-loop: every op is issued at its
// scheduled offset regardless of how earlier requests are faring, each on
// its own goroutine, so a slow server bends latency — never the offered
// load. It returns one envelope per issued op, in Seq order. A canceled
// context stops issuing new requests but still drains in-flight ones, so
// the result is then a prefix of the plan. Run dials over its own
// transport and leaves no connection open behind it.
func Run(ctx context.Context, plan *Plan, baseURL string) []Envelope {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 0
	tr.MaxIdleConnsPerHost = maxIdleConns
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}

	envs := make([]Envelope, len(plan.Ops))
	issued := 0
	var wg sync.WaitGroup
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
issue:
	for seq := range plan.Ops {
		op := &plan.Ops[seq]
		if wait := op.At - time.Since(start); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break issue
			}
		} else if ctx.Err() != nil {
			break issue
		}
		issued++
		wg.Add(1)
		go func() {
			defer wg.Done()
			envs[seq] = measure(ctx, client, baseURL, seq, op, start)
		}()
	}
	wg.Wait()
	return envs[:issued]
}

// measure issues one request and fills the measurement fields of its
// envelope.
func measure(ctx context.Context, client *http.Client, base string, seq int, op *Op, start time.Time) Envelope {
	e := Envelope{
		Seq:      seq,
		Endpoint: op.Endpoint,
		Path:     op.Path,
		SchedMS:  ms(op.At),
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+op.Path, nil)
	if err != nil {
		e.Error = err.Error()
		e.LatencyMS = ms(time.Since(start) - op.At)
		return e
	}
	sent := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		e.Error = err.Error()
	} else {
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused; the status is the result
		resp.Body.Close()
		e.Status = resp.StatusCode
		e.Cache = resp.Header.Get("X-Forestview-Cache")
		e.ShardsOK = atoiHeader(resp.Header, "X-Forestview-Shards-Ok")
		e.ShardsTotal = atoiHeader(resp.Header, "X-Forestview-Shards-Total")
		e.Degraded = resp.Header.Get("X-Forestview-Degraded") == "true"
	}
	done := time.Now()
	e.ServiceMS = ms(done.Sub(sent))
	e.LatencyMS = ms(done.Sub(start) - op.At)
	return e
}

func atoiHeader(h http.Header, key string) int {
	n, _ := strconv.Atoi(h.Get(key))
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
