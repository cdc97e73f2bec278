package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's side of the call. Parent is the ID of the span this one
// re-executes a part of (0 = none): the program has no internal tracing
// yet, so children are re-executions on the same inputs rather than
// intervals nested inside the parent.
type span struct {
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Note carries the parent's cache disposition, or why a child is
	// detached from it.
	Note string `json:"note,omitempty"`
	// Twin marks a span timed on the op's twin (a different, equally drawn
	// input) because running it on the op itself would warm what the
	// parent is about to measure cold.
	Twin bool `json:"twin,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder keeps spans in memory until the pass ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// reserve allocates a span whose children run before it does.
func (r *recorder) reserve(op int, name string) int {
	r.spans = append(r.spans, span{Op: op, ID: len(r.spans) + 1, Name: name})
	return len(r.spans)
}

// time runs f as span id (from reserve).
func (r *recorder) time(id int, f func()) {
	s := &r.spans[id-1]
	s.StartNS = time.Since(r.t0).Nanoseconds()
	f()
	s.EndNS = time.Since(r.t0).Nanoseconds()
}

// child runs f as a new span under parent and returns its duration.
func (r *recorder) child(op, parent int, name string, f func()) time.Duration {
	id := r.reserve(op, name)
	r.spans[id-1].Parent = parent
	r.time(id, f)
	return r.spans[id-1].dur()
}

// detach cuts every child of parent loose: the parent turned out not to
// have done their work (a cache hit re-executes nothing).
func (r *recorder) detach(parent int, why string) {
	for i := parent; i < len(r.spans); i++ { // children are reserved after their parent
		if r.spans[i].Parent == parent {
			r.spans[i].Parent, r.spans[i].Note = 0, why
		}
	}
}

// selfTimes is each span's duration minus the sum of its children's: the
// time the layer spent outside the layers below it. Children that ran
// concurrently inside the real parent (a scatter's per-group partials) can
// sum past it, so a self time may be negative.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeSpanFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
