package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"govpic/internal/deck"
	"govpic/internal/output"
)

// handleRestore admits one job seeded with an externally supplied
// checkpoint — the receiving half of a fleet relocation. The multipart
// form carries:
//
//	spec       — JSON deck.JSONConfig (including steps)
//	checkpoint — optional binary checkpoint (format v4, CRC-trailed,
//	             energy history included)
//
// The checkpoint lands in the spool before the job becomes visible to a
// runner, so the runner's ordinary resume path takes over: a CRC-valid
// checkpoint resumes bit-identically, a corrupted one falls back to a
// deterministic step-0 restart.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	if err := r.ParseMultipartForm(4 << 20); err != nil {
		writeError(w, http.StatusBadRequest, "bad multipart body: %v", err)
		return
	}
	specJSON := r.FormValue("spec")
	if specJSON == "" {
		writeError(w, http.StatusBadRequest, "missing spec part")
		return
	}
	spec, err := deck.FromJSON(strings.NewReader(specJSON))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	if _, err := spec.Build(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ckpt, _, ckptErr := r.FormFile("checkpoint")
	if ckptErr == nil {
		defer ckpt.Close()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.draining {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if s.queue.free() < 1 {
		s.rejected++
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusTooManyRequests, "queue full: 0 slots free, 1 job submitted")
		return
	}
	j := &Job{
		ID:        fmt.Sprintf("job-%06d", s.nextID),
		Spec:      spec,
		State:     StateQueued,
		Submitted: time.Now().UTC(),
		Progress:  Progress{Steps: spec.Steps},
	}
	s.nextID++
	if err := s.spool.writeJob(j); err != nil {
		writeError(w, http.StatusInternalServerError, "spool write failed: %v", err)
		return
	}
	// The checkpoint must be durable before a runner can pop the job.
	if ckptErr == nil {
		if err := output.WriteFileAtomic(s.spool.checkpointPath(j.ID), func(w io.Writer) error {
			_, err := io.Copy(w, ckpt)
			return err
		}); err != nil {
			writeError(w, http.StatusInternalServerError, "checkpoint write failed: %v", err)
			return
		}
	}
	s.jobs[j.ID] = j
	s.queue.tryPush(j) // cannot fail: free() checked under the same lock
	s.cfg.Logf("vpicd: %s restored from external artifacts (%s)", j.ID, spec.Deck)
	writeJSON(w, http.StatusAccepted, SubmitResponse{Jobs: []JobRef{{ID: j.ID, URL: "/v1/jobs/" + j.ID}}})
}
