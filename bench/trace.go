package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share req; parent is the index of the span that caused this one, -1
// for a root.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// is tracing switched off: begin and end cost one nil check, so the
// same replay code runs traced and untraced and their throughput ratio
// is the tracing overhead.
//
// The open spans form a stack: begin parents the new span under the
// innermost open one, which is how the timing filesystem — which is
// handed no context by the store — hangs its iox spans under the commit
// that caused them.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	open  []int
	req   int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span under the innermost open span and returns its
// index; a root span starts a new request.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	} else {
		r.req++
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Req: r.req, Parent: parent})
	r.open = append(r.open, id)
	r.spans[id].Start = int64(time.Since(r.epoch))
	r.mu.Unlock()
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	r.open = r.open[:len(r.open)-1]
	r.mu.Unlock()
}

// sample returns the durations of the spans named name among
// spans[from:to].
func (r *recorder) sample(from, to int, name string) []int64 {
	var out []int64
	for _, s := range r.spans[from:to] {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// roots returns the durations of the root spans among spans[from:to].
func (r *recorder) roots(from, to int) []int64 {
	var out []int64
	for _, s := range r.spans[from:to] {
		if s.Parent < 0 {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// selfTimes returns, for the spans named name among spans[from:to],
// each one's duration minus the time its direct children cover.
// Children of one span never overlap (they come off one stack), so the
// covered part is their plain sum.
func (r *recorder) selfTimes(from, to int, name string) []int64 {
	covered := make(map[int]int64)
	for _, s := range r.spans[from:to] {
		if s.Parent >= from {
			covered[s.Parent] += s.End - s.Start
		}
	}
	var out []int64
	for i, s := range r.spans[from:to] {
		if s.Name == name {
			out = append(out, s.End-s.Start-covered[from+i])
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (r *recorder) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}
