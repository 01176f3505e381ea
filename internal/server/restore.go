package server

import (
	"io"
	"net/http"
	"strings"

	"govpic/internal/deck"
)

// handleRestore admits one job seeded with an externally supplied
// checkpoint — the receiving half of a fleet relocation. The multipart
// form carries:
//
//	spec       — JSON deck.JSONConfig (including steps)
//	checkpoint — optional binary checkpoint (format v6, CRC-trailed,
//	             energy history included)
//
// admit spools the checkpoint before the job becomes visible to a
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
	var ckpt io.Reader
	if f, _, err := r.FormFile("checkpoint"); err == nil {
		defer f.Close()
		ckpt = f
	}
	s.admit(w, []deck.JSONConfig{spec}, ckpt)
}
