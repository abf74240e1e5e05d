package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the
// program. Name is "<layer>.<call>"; Op is the cell or job the call
// served, shared by every span of that operation; Parent is the ID of
// the enclosing span (0 at top level).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Op     string        `json:"op,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the benchmark writes them out. A
// nil tracer records nothing, which is how the timed runs go untraced.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// activeSpan is an open span; end closes it.
type activeSpan struct {
	t *tracer
	s span
}

// begin opens a span under parent (nil for a top-level span).
func (t *tracer) begin(name, op string, parent *activeSpan) *activeSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id}) // reserve the ID
	t.mu.Unlock()
	a := &activeSpan{t: t, s: span{ID: id, Name: name, Op: op, Start: time.Since(t.t0)}}
	if parent != nil {
		a.s.Parent = parent.s.ID
	}
	return a
}

func (a *activeSpan) end() {
	if a == nil {
		return
	}
	a.s.End = time.Since(a.t.t0)
	a.t.mu.Lock()
	a.t.spans[a.s.ID-1] = a.s
	a.t.mu.Unlock()
}

// layerTime is one layer's share of a traced run.
type layerTime struct {
	Calls int
	Total time.Duration // sum of span durations
	Self  time.Duration // sum of span durations minus what children cover
}

// selfTimes attributes every closed span to its layer. A span's self
// time is its duration minus the part of it covered by the union of its
// children, so concurrent children are not subtracted twice.
func (t *tracer) selfTimes() map[string]layerTime {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 && s.End > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		if s.End == 0 {
			continue // never closed
		}
		lt := out[s.layer()]
		lt.Calls++
		lt.Total += s.End - s.Start
		lt.Self += s.End - s.Start - covered(s, children[s.ID])
		out[s.layer()] = lt
	}
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cur, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = s, e
			continue
		}
		curEnd = max(curEnd, e)
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o666)
}
