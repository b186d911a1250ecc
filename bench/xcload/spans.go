package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call recorded by the harness around a layer's
// public entry point. Spans of one operation share Op; Parent is the
// index of the enclosing span, -1 for an operation's root.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out once, when the
// traced run ends. It is used from one goroutine.
type recorder struct {
	t0    time.Time
	spans []span
	ops   int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// op opens the root span of a new operation and returns its index.
func (r *recorder) op(name string) int {
	r.ops++
	return r.begin(name, -1)
}

// begin opens a span under parent (-1: a new root of the current op).
func (r *recorder) begin(name string, parent int) int {
	r.spans = append(r.spans, span{Name: name, Op: r.ops, Parent: parent, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	r.spans[id].End = int64(time.Since(r.t0))
	return time.Duration(r.spans[id].End - r.spans[id].Start)
}

// time records fn as a child span of parent.
func (r *recorder) time(name string, parent int, fn func()) time.Duration {
	id := r.begin(name, parent)
	fn()
	return r.end(id)
}

// layerTime is a span name's totals over a run.
type layerTime struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"` // total minus the time its child spans cover
}

// byLayer sums spans by name. A span's self time is its duration minus
// the durations of its direct children (children of one span never
// overlap: the recorder is single-threaded).
func (r *recorder) byLayer() map[string]*layerTime {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*layerTime)
	for i, s := range r.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.TotalNs += d
		lt.SelfNs += d - child[i]
	}
	return out
}

// write dumps the spans and the per-layer totals to dir/name.
func (r *recorder) write(dir, name string, extra map[string]any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := map[string]any{"layers": r.byLayer(), "spans": r.spans}
	for k, v := range extra {
		doc[k] = v
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
