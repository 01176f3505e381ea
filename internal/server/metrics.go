package server

import (
	"cmp"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"time"

	"govpic/internal/core"
	"govpic/internal/perf"
	"govpic/internal/push"
)

// handleMetrics exposes the service counters in the conventional
// line-oriented text exposition: queue state, job lifecycle counts,
// and the sum of every job's rank reports (advances, section times and
// bytes, comm wait and overlap, link and class traffic), then per-job
// load and physics rows in job-ID order.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	var running, queued int
	var rate float64
	var reps []core.RankReport
	var imbalance, rankParticles, physics []string
	kernelJobs := map[string]int{}
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		j := s.jobs[id]
		switch j.State {
		case StateRunning:
			running++
			rate += j.Progress.RateMPartS
		case StateQueued:
			queued++
		}
		reps = append(reps, j.Reports...)
		if len(j.Reports) > 1 {
			counts, ratio := core.RankLoad(j.Reports)
			if ratio > 0 {
				imbalance = append(imbalance, fmt.Sprintf("vpic_imbalance_ratio{job=%q} %.6f", id, ratio))
			}
			for rank, n := range counts {
				rankParticles = append(rankParticles, fmt.Sprintf("vpicd_rank_particles{job=%q,rank=\"%d\"} %d", id, rank, n))
			}
		}
		if j.Physics != nil {
			physics = append(physics, fmt.Sprintf("vpicd_job_physics_pass{job=%q} %d", id, b2i(j.Physics.Pass)))
		}
		if j.Kernel != "" {
			kernelJobs[j.Kernel]++
		}
	}
	tot := core.SumReports(reps)
	lines := []string{
		"vpicd_up 1",
		fmt.Sprintf("vpicd_uptime_seconds %.3f", time.Since(s.started).Seconds()),
		fmt.Sprintf("vpicd_queue_depth %d", s.queue.depth()),
		fmt.Sprintf("vpicd_queue_capacity %d", cap(s.queue.ch)),
		fmt.Sprintf("vpicd_jobs_queued %d", queued),
		fmt.Sprintf("vpicd_jobs_running %d", running),
		fmt.Sprintf("vpicd_jobs_completed_total %d", s.completed),
		fmt.Sprintf("vpicd_jobs_failed_total %d", s.failed),
		fmt.Sprintf("vpicd_jobs_cancelled_total %d", s.cancelled),
		fmt.Sprintf("vpicd_jobs_rejected_total %d", s.rejected),
		fmt.Sprintf("vpicd_draining %d", b2i(s.draining)),
		fmt.Sprintf("vpicd_particles_advanced_total %d", tot.Pushed),
		fmt.Sprintf("vpicd_particle_advance_rate_mpart_s %.6g", rate),
		"# HELP vpicd_comm_wait_seconds_total Time ranks spent blocked in receives, collectives included, summed over ranks.",
		fmt.Sprintf("vpicd_comm_wait_seconds_total %.6f", tot.CommWaitSeconds),
		"# HELP vpicd_comm_overlap_seconds_total Interior push the particle migrants flew behind, on ranks with a remote face, summed over ranks.",
		fmt.Sprintf("vpicd_comm_overlap_seconds_total %.6f", tot.CommOverlapSeconds),
		"# HELP vpicd_push_asm_lanes Particles the asm kernel pushes per block-routine call on this host: 32 (AVX-512), 8 (AVX2) or 0 (no asm).",
		fmt.Sprintf("vpicd_push_asm_lanes %d", push.AsmLanes()),
	}
	s.mu.Unlock()
	// Which resolved push kernel ("asm"/"go") each job actually ran —
	// the spec may say "auto", so this is the host-side truth.
	for _, name := range []string{push.KernelAsm, push.KernelGo} {
		if n := kernelJobs[name]; n > 0 {
			lines = append(lines, fmt.Sprintf("vpicd_jobs_kernel{kernel=%q} %d", name, n))
		}
	}
	// Section times in perf.Section order, then the estimated data
	// motion and the effective bandwidth it implies, the figure of merit
	// for the bandwidth-bound kernels.
	for sec := perf.Section(0); sec < perf.NumSections && len(reps) > 0; sec++ {
		lines = append(lines, fmt.Sprintf("vpicd_perf_seconds{section=%q} %.6f", sec, tot.Elapsed(sec).Seconds()))
	}
	for sec := perf.Section(0); sec < perf.NumSections; sec++ {
		if b := tot.BytesMoved(sec); b > 0 {
			lines = append(lines, fmt.Sprintf("vpicd_perf_bytes_moved_total{section=%q} %d", sec, b))
			if gbs := tot.EffectiveGBs(sec); gbs > 0 {
				lines = append(lines, fmt.Sprintf("vpicd_perf_effective_gb_s{section=%q} %.6g", sec, gbs))
			}
		}
	}
	// Per-link counters of decomposed jobs, summed over jobs, in
	// rank-pair order.
	links := tot.Links
	slices.SortStableFunc(links, func(a, b perf.CommLinkStat) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Peer, b.Peer))
	})
	for i := 0; i < len(links); {
		l := links[i]
		for i++; i < len(links) && links[i].Src == l.Src && links[i].Peer == l.Peer; i++ {
			l.BytesSent += links[i].BytesSent
			l.MsgsSent += links[i].MsgsSent
		}
		lines = append(lines,
			fmt.Sprintf("vpicd_comm_link_bytes_sent_total{link=%q} %d", l.Label(), l.BytesSent),
			fmt.Sprintf("vpicd_comm_link_msgs_sent_total{link=%q} %d", l.Label(), l.MsgsSent))
	}
	// Per-exchange-class traffic, in class order.
	for _, c := range tot.Classes {
		lines = append(lines,
			fmt.Sprintf("vpicd_comm_class_bytes_total{class=%q} %d", c.Class, c.Bytes),
			fmt.Sprintf("vpicd_comm_class_msgs_total{class=%q} %d", c.Class, c.Msgs))
	}
	// Load balance (the measured push-time imbalance and each rank's
	// particle count of decomposed jobs) and the physics verdict.
	lines = append(append(append(lines, imbalance...), rankParticles...), physics...)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
