package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's
// own code around the public function it calls. Spans of one
// operation (a search, a request, a Monte-Carlo pass) share Op.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Op     int    `json:"op"`
	Name   string `json:"name"` // "<layer>.<call>"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Layer is the span name up to its first dot.
func (s Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer
// records nothing, so untraced runs pay one nil check per call site.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
	ops   int // last operation id handed out
}

// NewTracer starts an empty in-memory span log.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span and returns its id (-1 when t is nil).
func (t *Tracer) Begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// End closes span id and returns its duration.
func (t *Tracer) End(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	d := time.Duration(now - t.spans[id].Start)
	t.mu.Unlock()
	return d
}

// Do runs f inside a span and returns the span's duration.
func (t *Tracer) Do(name string, op, parent int, f func()) time.Duration {
	if t == nil {
		start := time.Now()
		f()
		return time.Since(start)
	}
	id := t.Begin(name, op, parent)
	f()
	return t.End(id)
}

// NewOp hands out the next operation id (-1 when t is nil).
func (t *Tracer) NewOp() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes returns each span's self time: its duration minus the
// part of its interval covered by its direct children (the union of
// their intervals, so concurrent children are not double-counted).
func SelfTimes(spans []Span) []time.Duration {
	children := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		open := false
		for _, v := range iv {
			switch {
			case !open:
				curLo, curHi, open = v[0], v[1], true
			case v[0] <= curHi:
				curHi = max(curHi, v[1])
			default:
				covered += curHi - curLo
				curLo, curHi = v[0], v[1]
			}
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// WriteSpans writes one JSON header line (the machine record) and then
// one JSON line per span.
func WriteSpans(path string, header any, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
