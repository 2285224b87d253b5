package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one recorded call into a layer: its name, its interval
// relative to the start of the traced run, the span that caused it
// (-1 for an operation's root) and the operation it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory for the traced run; they are written
// out once the run ends. A nil *tracer records nothing, so the timed
// (untraced) runs call the same code with tracing off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	op    int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (tr *tracer) begin(name string, parent int) int {
	if tr == nil {
		return -1
	}
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: tr.op})
	return len(tr.spans) - 1
}

// end closes span id.
func (tr *tracer) end(id int) {
	if tr == nil {
		return
	}
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	tr.spans[id].End = now
	tr.mu.Unlock()
}

// do records fn as one span under parent.
func (tr *tracer) do(name string, parent int, fn func()) {
	id := tr.begin(name, parent)
	fn()
	tr.end(id)
}

// nextOp starts a new operation; later spans carry its index.
func (tr *tracer) nextOp() {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.op++
	tr.mu.Unlock()
}

// opSpans is one traced operation's spans by name: the total duration
// of each name, and the shortest single span of it (for a pass repeated
// within the operation).
type opSpans struct {
	total, min map[string]time.Duration
}

// perOp aggregates the spans by name, per operation.
func (tr *tracer) perOp() []opSpans {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]opSpans, tr.op+1)
	for i := range out {
		out[i] = opSpans{map[string]time.Duration{}, map[string]time.Duration{}}
	}
	for _, s := range tr.spans {
		if s.End < 0 {
			continue
		}
		d, o := time.Duration(s.End-s.Start), out[s.Op]
		o.total[s.Name] += d
		if m, ok := o.min[s.Name]; !ok || d < m {
			o.min[s.Name] = d
		}
	}
	// Operation 0 is whatever ran before the first nextOp (nothing,
	// or set-up); only completed operations carry layer totals.
	return out[1:]
}

// write saves every span as JSON to path.
func (tr *tracer) write(path string) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
