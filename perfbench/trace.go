package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of
// one op share Op; N is how many identical calls the span covers (a
// batch, for calls too short to time one by one).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n"`
}

// maxSpans bounds the in-memory span buffer; spans past it are not
// recorded.
const maxSpans = 1 << 21

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span and returns its id (0 when not recorded).
func (t *tracer) begin(name string, parent, op int64) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return 0
	}
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, N: 1})
	return id
}

// end closes span id; n is the number of calls it covered.
func (t *tracer) end(id int64, n int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End = now
	s.N = n
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, for every closed span, its duration minus the
// part of it its children cover, per call it covered.
func selfTimes(spans []span) map[int64]float64 {
	child := make(map[int64]int64)
	for _, s := range spans {
		if s.Parent == 0 || s.End == 0 {
			continue
		}
		child[s.Parent] += s.End - s.Start
	}
	out := make(map[int64]float64, len(spans))
	for _, s := range spans {
		if s.End == 0 {
			continue
		}
		self := s.End - s.Start - child[s.ID]
		if self < 0 {
			self = 0
		}
		n := s.N
		if n < 1 {
			n = 1
		}
		out[s.ID] = float64(self) / float64(n)
	}
	return out
}

// medianSelf returns the median per-call self time of every span name.
func medianSelf(spans []span) map[string]float64 {
	self := selfTimes(spans)
	byName := make(map[string][]float64)
	for _, s := range spans {
		if v, ok := self[s.ID]; ok {
			byName[s.Name] = append(byName[s.Name], v)
		}
	}
	out := make(map[string]float64, len(byName))
	for name, vs := range byName {
		out[name] = median(vs)
	}
	return out
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
