package workload

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Quantiles summarizes a latency sample in milliseconds.
type Quantiles struct {
	P50, P95, P99, Max float64
}

// quantilesOf computes nearest-rank percentiles; sample is sorted in
// place. Zero value for an empty sample.
func quantilesOf(sample []float64) Quantiles {
	if len(sample) == 0 {
		return Quantiles{}
	}
	sort.Float64s(sample)
	rank := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(sample)))) - 1
		if i < 0 {
			i = 0
		}
		return sample[i]
	}
	return Quantiles{
		P50: rank(0.50),
		P95: rank(0.95),
		P99: rank(0.99),
		Max: sample[len(sample)-1],
	}
}

// Tally counts a set of envelopes: the whole run, or one endpoint's share.
type Tally struct {
	Requests  int
	Errors5xx int
	Errors4xx int
	Transport int
	Degraded  int
	// Cache dispositions the server disclosed. Prefetched counts hits on
	// speculative renders: tiles ready before the walk asked for them.
	Hits, Misses, Coalesced, Prefetched int
	// Latency is scheduled-arrival-relative (coordinated-omission-free).
	Latency Quantiles

	sample []float64
}

func (t *Tally) add(e *Envelope) {
	t.Requests++
	switch {
	case e.Status == 0:
		t.Transport++
	case e.Status >= 500:
		t.Errors5xx++
	case e.Status >= 400:
		t.Errors4xx++
	}
	if e.Degraded {
		t.Degraded++
	}
	switch e.Cache {
	case "hit":
		t.Hits++
	case "miss":
		t.Misses++
	case "coalesced":
		t.Coalesced++
	case "prefetched":
		t.Prefetched++
	}
	t.sample = append(t.sample, e.LatencyMS)
}

func (t *Tally) disclosed() int { return t.Hits + t.Misses + t.Coalesced + t.Prefetched }

// WarmShare is (hits+prefetched+coalesced)/all-disclosed — the fraction of
// requests that never paid a cold compute. Zero when nothing was disclosed.
func (t *Tally) WarmShare() float64 {
	if t.disclosed() == 0 {
		return 0
	}
	return float64(t.Hits+t.Prefetched+t.Coalesced) / float64(t.disclosed())
}

// Summary is the fold of a run's envelopes: the overall tally and one per
// endpoint.
type Summary struct {
	Tally
	Endpoints map[string]*Tally
}

// Summarize folds envelopes into a Summary.
func Summarize(envs []Envelope) *Summary {
	s := &Summary{Endpoints: map[string]*Tally{}}
	for i := range envs {
		e := &envs[i]
		ep := s.Endpoints[e.Endpoint]
		if ep == nil {
			ep = &Tally{}
			s.Endpoints[e.Endpoint] = ep
		}
		s.add(e)
		ep.add(e)
	}
	s.Latency = quantilesOf(s.sample)
	for _, ep := range s.Endpoints {
		ep.Latency = quantilesOf(ep.sample)
	}
	return s
}

// WriteText renders the summary for a terminal.
func (s *Summary) WriteText(w io.Writer) {
	fmt.Fprintf(w, "requests: %d  5xx: %d  4xx: %d  transport: %d  degraded: %d\n",
		s.Requests, s.Errors5xx, s.Errors4xx, s.Transport, s.Degraded)
	fmt.Fprintf(w, "latency (sched-relative): p50 %.1fms  p95 %.1fms  p99 %.1fms  max %.1fms\n",
		s.Latency.P50, s.Latency.P95, s.Latency.P99, s.Latency.Max)

	names := make([]string, 0, len(s.Endpoints))
	for name := range s.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\n%-10s %8s %6s %6s %6s %10s %10s %10s  %s\n",
		"endpoint", "requests", "5xx", "4xx", "degr", "p50", "p95", "p99", "hit/miss/coal/prefetch")
	for _, name := range names {
		ep := s.Endpoints[name]
		fmt.Fprintf(w, "%-10s %8d %6d %6d %6d %8.1fms %8.1fms %8.1fms  %d/%d/%d/%d",
			name, ep.Requests, ep.Errors5xx, ep.Errors4xx, ep.Degraded,
			ep.Latency.P50, ep.Latency.P95, ep.Latency.P99,
			ep.Hits, ep.Misses, ep.Coalesced, ep.Prefetched)
		if ep.disclosed() > 0 {
			fmt.Fprintf(w, " (warm %.0f%%)", 100*ep.WarmShare())
		}
		fmt.Fprintln(w)
	}
}
