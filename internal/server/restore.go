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

// handleRestore admits one job seeded with externally supplied
// checkpoint artifacts — the receiving half of a fleet relocation. The
// multipart form carries:
//
//	spec       — JSON deck.JSONConfig (including steps)
//	checkpoint — optional binary checkpoint (format v3, CRC-trailed)
//	history    — energy-history JSON paired with the checkpoint
//	             (required with it: the resumed run's history is the
//	             replayed prefix plus freshly computed samples)
//
// The artifacts land in the spool before the job becomes visible to a
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
		if _, _, err := r.FormFile("history"); err != nil {
			writeError(w, http.StatusBadRequest, "checkpoint without history: the resumed run could not reconstruct its sample prefix")
			return
		}
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
	// Artifacts must be durable before a runner can pop the job.
	if ckptErr == nil {
		hist, _, _ := r.FormFile("history")
		defer hist.Close()
		for _, part := range []struct {
			src  io.Reader
			path string
		}{
			{ckpt, s.spool.checkpointPath(j.ID)},
			{hist, s.spool.historyPath(j.ID)},
		} {
			if err := output.WriteFileAtomic(part.path, func(w io.Writer) error {
				_, err := io.Copy(w, part.src)
				return err
			}); err != nil {
				writeError(w, http.StatusInternalServerError, "artifact write failed: %v", err)
				return
			}
		}
	}
	s.jobs[j.ID] = j
	s.queue.tryPush(j) // cannot fail: free() checked under the same lock
	s.cfg.Logf("vpicd: %s restored from external artifacts (%s)", j.ID, spec.Deck)
	writeJSON(w, http.StatusAccepted, SubmitResponse{Jobs: []JobRef{{ID: j.ID, URL: "/v1/jobs/" + j.ID}}})
}
