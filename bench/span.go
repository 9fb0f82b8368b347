package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer. Times are nanoseconds since the tracer's epoch; sched is when
// the work was due (equal to start for everything but open-loop
// requests). Spans of one request share its root through parent links.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	Sched  int64  `json:"sched_ns"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Bytes is the response size for request spans.
	Bytes int64 `json:"bytes,omitempty"`
	// Note carries a span's outcome: "hit"/"miss" for cache lookups, the
	// status code for requests.
	Note string `json:"note,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per span.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// ns converts an instant into the tracer's clock.
func (t *tracer) ns(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return at.Sub(t.epoch).Nanoseconds()
}

// add records s, assigning its id, and returns the id (0 when t is nil).
func (t *tracer) add(s span) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	s.ID = t.next
	t.spans = append(t.spans, s)
	return s.ID
}

// reserve hands out an id for a root span whose end is not known yet, so
// children can point at it before it is recorded with put.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// put records a span whose id came from reserve.
func (t *tracer) put(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f inside a span named name under parent and returns the
// span's duration.
func (t *tracer) timed(parent int64, name, op string, seed int64, f func()) time.Duration {
	start := time.Now()
	f()
	return t.since(parent, name, op, seed, start)
}

// since records a span from start until now and returns its duration.
func (t *tracer) since(parent int64, name, op string, seed int64, start time.Time) time.Duration {
	end := time.Now()
	t.add(span{Parent: parent, Name: name, Op: op, Seed: seed,
		Sched: t.ns(start), Start: t.ns(start), End: t.ns(end)})
	return end.Sub(start)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span, one JSON object per line, ordered by id.
func (t *tracer) writeJSONL(path string) error {
	spans := t.snapshot()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children covers. Overlapping
// children are counted once, and child time outside the parent's interval
// is ignored.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of the spans.
func covered(lo, hi int64, spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	var curA, curB int64
	for i, v := range iv {
		switch {
		case i == 0:
			curA, curB = v[0], v[1]
		case v[0] > curB:
			total += curB - curA
			curA, curB = v[0], v[1]
		case v[1] > curB:
			curB = v[1]
		}
	}
	if len(iv) > 0 {
		total += curB - curA
	}
	return total
}
