package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"govpic/internal/deck"
	"govpic/internal/diag"
	"govpic/internal/output"
	"govpic/internal/server"
)

// backpressureError is a worker 429: not a failure, a scheduling
// signal carrying the Retry-After hold.
type backpressureError struct {
	retryAfter time.Duration
}

func (e *backpressureError) Error() string {
	return fmt.Sprintf("worker backpressure (retry after %s)", e.retryAfter)
}

func isBackpressure(err error) bool {
	var bp *backpressureError
	return errors.As(err, &bp)
}

// client is the coordinator's typed view of the vpicd worker API.
// Unary calls are bounded; event streams live as long as their context.
type client struct {
	unary  *http.Client
	stream *http.Client
}

func newClient() *client {
	return &client{
		unary:  &http.Client{Timeout: 15 * time.Second},
		stream: &http.Client{},
	}
}

// healthInfo mirrors the worker /healthz body the coordinator cares
// about.
type healthInfo struct {
	Status     string `json:"status"`
	QueueFree  int    `json:"queue_free"`
	QueueDepth int    `json:"queue_depth"`
}

// health probes a worker's /healthz within probeTimeout; any transport
// error or non-200 is a failed probe.
func (cl *client) health(baseURL string) (healthInfo, error) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/healthz", nil)
	if err != nil {
		return healthInfo{}, err
	}
	resp, err := cl.stream.Do(req) // ctx bounds it; no double timeout
	if err != nil {
		return healthInfo{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return healthInfo{}, fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	var h healthInfo
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&h); err != nil {
		return healthInfo{}, err
	}
	return h, nil
}

// decodeSubmitResponse handles the shared 202/429/other triage of the
// submit and restore endpoints.
func decodeSubmitResponse(resp *http.Response) (server.JobRef, error) {
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	switch resp.StatusCode {
	case http.StatusAccepted:
		var sr server.SubmitResponse
		if err := json.Unmarshal(body, &sr); err != nil || len(sr.Jobs) != 1 {
			return server.JobRef{}, fmt.Errorf("bad submit response: %s", body)
		}
		return sr.Jobs[0], nil
	case http.StatusTooManyRequests:
		after := 5 * time.Second
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
			after = time.Duration(s) * time.Second
		}
		return server.JobRef{}, &backpressureError{retryAfter: after}
	default:
		return server.JobRef{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
}

// submit places one spec as a fresh worker job.
func (cl *client) submit(baseURL string, spec deck.JSONConfig) (server.JobRef, error) {
	body, err := json.Marshal(server.SubmitRequest{Deck: spec})
	if err != nil {
		return server.JobRef{}, err
	}
	resp, err := cl.unary.Post(baseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return server.JobRef{}, err
	}
	return decodeSubmitResponse(resp)
}

// restore places one spec seeded with its mirrored checkpoint — the
// relocation path. The worker resumes it bit-identically.
func (cl *client) restore(baseURL string, spec deck.JSONConfig, ckptPath string) (server.JobRef, error) {
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return server.JobRef{}, err
	}
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	if err := mw.WriteField("spec", string(specJSON)); err != nil {
		return server.JobRef{}, err
	}
	f, err := os.Open(ckptPath)
	if err != nil {
		return server.JobRef{}, fmt.Errorf("mirror checkpoint: %w", err)
	}
	pw, err := mw.CreateFormFile("checkpoint", "checkpoint")
	if err == nil {
		_, err = io.Copy(pw, f)
	}
	f.Close()
	if err != nil {
		return server.JobRef{}, err
	}
	if err := mw.Close(); err != nil {
		return server.JobRef{}, err
	}
	resp, err := cl.unary.Post(baseURL+"/v1/jobs/restore", mw.FormDataContentType(), &buf)
	if err != nil {
		return server.JobRef{}, err
	}
	return decodeSubmitResponse(resp)
}

// status fetches one worker job.
func (cl *client) status(baseURL, id string) (server.Job, error) {
	resp, err := cl.unary.Get(baseURL + "/v1/jobs/" + id)
	if err != nil {
		return server.Job{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return server.Job{}, fmt.Errorf("status %s: HTTP %d", id, resp.StatusCode)
	}
	var j server.Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		return server.Job{}, err
	}
	return j, nil
}

// resultBytes fetches a completed worker job's result artifact.
func (cl *client) resultBytes(baseURL, id string) ([]byte, error) {
	resp, err := cl.unary.Get(baseURL + "/v1/jobs/" + id + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result %s: HTTP %d", id, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// artifact downloads a worker job's spooled checkpoint to dst,
// atomically — a torn mirror must never replace a good one.
func (cl *client) artifact(baseURL, id, dst string) error {
	resp, err := cl.unary.Get(baseURL + "/v1/jobs/" + id + "/artifacts/checkpoint")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("checkpoint %s: HTTP %d", id, resp.StatusCode)
	}
	return output.WriteFileAtomic(dst, func(w io.Writer) error {
		_, err := io.Copy(w, resp.Body)
		return err
	})
}

// streamEvents consumes a worker job's SSE stream from the given step,
// dispatching samples and the terminal state. Returns nil after a
// state event (the stream is over), an error on transport trouble.
func (cl *client) streamEvents(ctx context.Context, baseURL, id string, from int,
	onSample func(diag.EnergySample), onState func(state, errMsg string)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Last-Event-ID", strconv.Itoa(from))
	req.Header.Set("Accept", "text/event-stream")
	resp, err := cl.stream.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events %s: HTTP %d", id, resp.StatusCode)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			switch event {
			case "sample":
				var s diag.EnergySample
				if err := json.Unmarshal([]byte(data), &s); err == nil {
					onSample(s)
				}
			case "state":
				var st struct{ State, Error string }
				var m map[string]string
				if err := json.Unmarshal([]byte(data), &m); err == nil {
					st.State, st.Error = m["state"], m["error"]
				}
				onState(st.State, st.Error)
				return nil
			}
			event, data = "", ""
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("events %s: stream ended without a state event", id)
}
