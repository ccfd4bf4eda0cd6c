package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestRecorderNestsAndComputesSelfTime(t *testing.T) {
	r := newRecorder()
	root := r.begin("store.insert")
	a := r.begin("iox.write")
	time.Sleep(2 * time.Millisecond)
	r.end(a)
	b := r.begin("iox.sync")
	time.Sleep(3 * time.Millisecond)
	r.end(b)
	time.Sleep(time.Millisecond)
	r.end(root)
	second := r.begin("store.insert")
	r.end(second)

	if len(r.spans) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(r.spans))
	}
	if r.spans[a].Parent != root || r.spans[b].Parent != root || r.spans[root].Parent != -1 {
		t.Fatalf("parents are %d, %d, %d; want %d, %d, -1", r.spans[a].Parent, r.spans[b].Parent, r.spans[root].Parent, root, root)
	}
	if r.spans[a].Req != r.spans[root].Req || r.spans[second].Req == r.spans[root].Req {
		t.Fatalf("children must share their root's request id and a new root must get a new one: %+v", r.spans)
	}
	for i, s := range r.spans {
		if s.End < s.Start {
			t.Fatalf("span %d ends before it starts: %+v", i, s)
		}
	}
	self := r.selfTimes(0, len(r.spans), "store.insert")[0]
	total := r.spans[root].End - r.spans[root].Start
	children := (r.spans[a].End - r.spans[a].Start) + (r.spans[b].End - r.spans[b].Start)
	if self != total-children {
		t.Fatalf("self time %d, want total %d minus children %d", self, total, children)
	}
	if self < int64(time.Millisecond) || self > total-int64(5*time.Millisecond) {
		t.Fatalf("self time %v implausible for a 1 ms tail inside %v", time.Duration(self), time.Duration(total))
	}
	if got := r.sample(0, len(r.spans), "store.insert"); len(got) != 2 {
		t.Fatalf("sample finds %d store.insert spans, want 2", len(got))
	}
	if got := r.roots(0, len(r.spans)); len(got) != 2 || got[0] != total {
		t.Fatalf("roots are %v, want the two store.insert spans", got)
	}
	if got := r.selfTimes(second, len(r.spans), "store.insert"); len(got) != 1 || got[0] != r.spans[second].End-r.spans[second].Start {
		t.Fatalf("a childless span's self time is its duration, got %v", got)
	}
}

func TestNilRecorderIsTracingOff(t *testing.T) {
	var r *recorder
	id := r.begin("anything")
	r.end(id) // must not panic
	if id != -1 {
		t.Fatalf("nil recorder handed out span %d", id)
	}
}

func TestRecorderWritesJSONLines(t *testing.T) {
	r := newRecorder()
	r.end(r.begin("pass"))
	var buf bytes.Buffer
	if err := r.write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("%d lines for one span", len(lines))
	}
	var s span
	if err := json.Unmarshal([]byte(lines[0]), &s); err != nil {
		t.Fatal(err)
	}
	if s.Name != "pass" || s.Parent != -1 || s.Req != 1 {
		t.Fatalf("span round-tripped as %+v", s)
	}
}
