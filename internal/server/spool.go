package server

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"govpic/internal/output"
)

// spool is the on-disk job store: one directory per job holding the job
// record, the latest checkpoint (which carries the energy history up to
// its step) and, once completed, the result. Every write is atomic
// (temp + fsync + rename, via output.WriteFileAtomic), so a crash at any
// instant leaves either the previous or the new version of each file —
// never a torn one.
//
//	<dir>/job-000001/job.json      — spec + state (rewritten on transitions)
//	<dir>/job-000001/state.ckpt    — latest checkpoint (v6, CRC-trailed)
//	<dir>/job-000001/result.json   — final Result (completed jobs only)
type spool struct {
	dir string
}

func newSpool(dir string) (spool, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return spool{}, fmt.Errorf("server: spool: %w", err)
	}
	return spool{dir: dir}, nil
}

func (sp spool) jobDir(id string) string         { return filepath.Join(sp.dir, id) }
func (sp spool) jobPath(id string) string        { return filepath.Join(sp.dir, id, "job.json") }
func (sp spool) checkpointPath(id string) string { return filepath.Join(sp.dir, id, "state.ckpt") }
func (sp spool) resultPath(id string) string     { return filepath.Join(sp.dir, id, "result.json") }

// writeJob persists the job record.
func (sp spool) writeJob(j *Job) error {
	if err := os.MkdirAll(sp.jobDir(j.ID), 0o755); err != nil {
		return fmt.Errorf("server: spool: %w", err)
	}
	return output.WriteFileAtomic(sp.jobPath(j.ID), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(j)
	})
}

// writeResult persists the final artifact and retires the now-redundant
// checkpoint.
func (sp spool) writeResult(id string, res Result) error {
	err := output.WriteFileAtomic(sp.resultPath(id), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	})
	if err != nil {
		return err
	}
	os.Remove(sp.checkpointPath(id))
	return nil
}

// scan loads every job record in the spool, sorted by ID so recovery
// re-enqueues in original submission order.
func (sp spool) scan() ([]*Job, error) {
	entries, err := os.ReadDir(sp.dir)
	if err != nil {
		return nil, fmt.Errorf("server: spool scan: %w", err)
	}
	var jobs []*Job
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "job-") {
			continue
		}
		f, err := os.Open(sp.jobPath(e.Name()))
		if err != nil {
			continue // partially created job dir; nothing durable to recover
		}
		var j Job
		derr := json.NewDecoder(f).Decode(&j)
		f.Close()
		if derr != nil || j.ID != e.Name() {
			continue
		}
		jobs = append(jobs, &j)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID < jobs[b].ID })
	return jobs, nil
}
