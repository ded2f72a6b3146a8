package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one job or one
// request share Trace; Parent is the id of the span that caused this one
// (0 for a root).
type span struct {
	Trace  string `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Its methods are safe
// for concurrent use and are no-ops on a nil tracer, which is how
// untraced passes run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (ids start at 1).
func (t *tracer) start(trace string, parent int64, name string) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: now, End: now})
	return id
}

// end closes the span start returned.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans stores spans as one JSON document at path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time in nanoseconds, indexed like
// spans: its duration minus the part of its interval that its children
// cover. Overlapping children (concurrent calls under one parent) are
// merged first, so shared time is subtracted once, and child time outside
// the parent's interval is not subtracted at all.
func selfTimes(spans []span) []int64 {
	idx := make(map[int64]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
	}
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if _, ok := idx[s.Parent]; ok {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		switch {
		case !open:
			curLo, curHi, open = a, b, true
		case a <= curHi:
			curHi = max(curHi, b)
		default:
			total += curHi - curLo
			curLo, curHi = a, b
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}
