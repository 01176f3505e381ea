package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call made by the benchmark's own code into a layer.
// Spans inside the program under test are a later issue (ROADMAP item
// 4); these are recorded at the call sites in cmd/bench.
type span struct {
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
	Parent int // index of the causing span, -1 for a root
	Track  int // 0 = driver; clients of the sweep use 1, 2, ...
}

// tracer keeps spans in memory and writes them out when the run ends.
// Measurements meant for the end-to-end metrics never run under it.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span and returns its id for end and for children. A
// nil tracer records nothing, so untraced runs share the call sites.
func (t *tracer) begin(name string, parent, track int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Track: track})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs fn under a span and returns its duration in microseconds.
func (t *tracer) timed(name string, parent int, fn func()) float64 {
	id := t.begin(name, parent, 0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(id)
	return float64(d.Nanoseconds()) / 1e3
}

// reps calls fn k times, each under a span, and returns the durations in
// microseconds; prep (may be nil) runs untimed before every call.
func (t *tracer) reps(name string, parent, k int, prep, fn func()) []float64 {
	out := make([]float64, k)
	for i := range out {
		if prep != nil {
			prep()
		}
		out[i] = t.timed(name, parent, fn)
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, loadable in chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every span as a trace-event JSON object.
func (t *tracer) writeChrome(path string) error {
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Track,
			Args: map[string]any{"id": i, "parent": s.Parent, "workload": t.workload},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
