package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"govpic/internal/diag"
)

// event is one element of a job's server-sent stream: either a
// step-granular energy sample or the terminal state notice that ends
// the stream.
type event struct {
	Sample *diag.EnergySample
	State  string
	Error  string
}

// stream is one job's event history plus its live subscribers.
type stream struct {
	samples  []diag.EnergySample
	lastStep int    // highest published sample step (-1 before the first)
	state    string // terminal state name, once ended
	errMsg   string
	subs     map[chan event]struct{}
}

// hub fans job events out to SSE subscribers. It retains every
// published sample so a late (or reconnecting) subscriber replays the
// full step-granular history before going live. Publishing is strictly
// monotonic in step: a resumed job replaying its recovered prefix, or a
// restarted-from-zero job recomputing bit-identical samples, cannot
// duplicate what subscribers already saw.
type hub struct {
	mu      sync.Mutex
	streams map[string]*stream
}

// newHub returns an empty hub.
func newHub() *hub { return &hub{streams: make(map[string]*stream)} }

// getLocked returns the job's stream, creating it on first touch.
func (h *hub) getLocked(id string) *stream {
	st, ok := h.streams[id]
	if !ok {
		st = &stream{lastStep: -1, subs: make(map[chan event]struct{})}
		h.streams[id] = st
	}
	return st
}

// publish appends one energy sample and delivers it to every live
// subscriber. Samples at or below the last published step are dropped
// (monotonic dedup), as is anything after the stream has ended.
func (h *hub) publish(id string, s diag.EnergySample) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.getLocked(id)
	if st.state != "" || s.Step <= st.lastStep {
		return
	}
	st.lastStep = s.Step
	st.samples = append(st.samples, s)
	cp := s
	for ch := range st.subs {
		select {
		case ch <- event{Sample: &cp}:
		default:
			// Slow subscriber: drop it rather than stall the runner; the
			// client reconnects with Last-Event-ID and replays the gap.
			close(ch)
			delete(st.subs, ch)
		}
	}
}

// publishState ends the stream with a terminal state: subscribers get
// one state event and their channels close. Idempotent.
func (h *hub) publishState(id string, state State, errMsg string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.getLocked(id)
	if st.state != "" {
		return
	}
	st.state = string(state)
	st.errMsg = errMsg
	for ch := range st.subs {
		select {
		case ch <- event{State: st.state, Error: errMsg}:
		default:
		}
		close(ch)
		delete(st.subs, ch)
	}
}

// ended reports whether the job's stream has published its terminal
// state.
func (h *hub) ended(id string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	st, ok := h.streams[id]
	return ok && st.state != ""
}

// subscribe returns the replayable samples strictly after fromStep and
// either the terminal state (ch nil: the stream already ended) or a
// live event channel. cancel releases the subscription and is safe to
// call twice.
func (h *hub) subscribe(id string, fromStep int) (replay []diag.EnergySample, state, errMsg string, ch chan event, cancel func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.getLocked(id)
	for _, s := range st.samples {
		if s.Step > fromStep {
			replay = append(replay, s)
		}
	}
	if st.state != "" {
		return replay, st.state, st.errMsg, nil, func() {}
	}
	ch = make(chan event, 256)
	st.subs[ch] = struct{}{}
	cancel = func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if _, ok := st.subs[ch]; ok {
			delete(st.subs, ch)
			close(ch)
		}
	}
	return replay, "", "", ch, cancel
}

// serveSSE streams one job's hub stream as text/event-stream: samples
// after the client's Last-Event-ID replay first, live
// samples follow, and a terminal state event ends the stream.
//
//	id: <step>
//	event: sample
//	data: {"Step":40,"Time":...}
//
//	event: state
//	data: {"state":"completed"}
func serveSSE(w http.ResponseWriter, r *http.Request, h *hub, id string) {
	from := -1
	if n, err := strconv.Atoi(r.Header.Get("Last-Event-ID")); err == nil {
		from = n
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	replay, state, errMsg, ch, cancel := h.subscribe(id, from)
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	last := from
	writeSample := func(s diag.EnergySample) {
		b, err := json.Marshal(s)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "id: %d\nevent: sample\ndata: %s\n\n", s.Step, b)
		last = s.Step
	}
	for _, s := range replay {
		writeSample(s)
	}
	fl.Flush()
	if state != "" {
		writeStateEvent(w, state, errMsg)
		fl.Flush()
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return // dropped as a slow subscriber; the client reconnects
			}
			if ev.Sample != nil {
				if ev.Sample.Step <= last {
					continue
				}
				writeSample(*ev.Sample)
				fl.Flush()
				continue
			}
			writeStateEvent(w, ev.State, ev.Error)
			fl.Flush()
			return
		}
	}
}

func writeStateEvent(w io.Writer, state, errMsg string) {
	m := map[string]string{"state": state}
	if errMsg != "" {
		m["error"] = errMsg
	}
	b, _ := json.Marshal(m)
	fmt.Fprintf(w, "event: state\ndata: %s\n\n", b)
}
