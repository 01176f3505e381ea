package server

import (
	"fmt"
	"net/http"
	"sort"
	"time"

	"govpic/internal/domain"
	"govpic/internal/perf"
	"govpic/internal/push"
)

// handleMetrics exposes the service counters in the conventional
// line-oriented text exposition: queue state, job lifecycle counts,
// aggregate particle-advance totals and rates, and the per-section
// kernel timings summed over all jobs this process has touched.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	var running, queued int
	var pushed int64
	var rate float64
	perfSec := map[string]float64{}
	perfBytes := map[string]int64{}
	type linkKey struct{ src, peer int }
	linkSentB := map[linkKey]int64{}
	linkSentM := map[linkKey]int64{}
	classBytes := map[string]int64{}
	classMsgs := map[string]int64{}
	var commWait, commOverlap float64
	type rankCount struct {
		job  string
		rank int
		n    int
	}
	var imbalance []struct {
		job   string
		ratio float64
	}
	var rankCounts []rankCount
	type physRow struct {
		job  string
		pass int
	}
	var phys []physRow
	kernelJobs := map[string]int{}
	for _, j := range s.jobs {
		switch j.State {
		case StateRunning:
			running++
			rate += j.Progress.RateMPartS
		case StateQueued:
			queued++
		}
		pushed += j.pushed
		for _, st := range j.Perf {
			perfSec[st.Name] += st.Seconds
			perfBytes[st.Name] += st.BytesMoved
		}
		for _, l := range j.CommLinks {
			k := linkKey{l.Src, l.Peer}
			linkSentB[k] += l.BytesSent
			linkSentM[k] += l.MsgsSent
		}
		for _, c := range j.CommTraffic {
			classBytes[c.Class] += c.Bytes
			classMsgs[c.Class] += c.Msgs
		}
		commWait += j.CommWaitSeconds
		commOverlap += j.CommOverlapSeconds
		if j.ImbalanceRatio > 0 {
			imbalance = append(imbalance, struct {
				job   string
				ratio float64
			}{j.ID, j.ImbalanceRatio})
		}
		for r, n := range j.PerRankParticles {
			rankCounts = append(rankCounts, rankCount{j.ID, r, n})
		}
		if j.Physics != nil {
			phys = append(phys, physRow{j.ID, b2i(j.Physics.Pass)})
		}
		if j.Kernel != "" {
			kernelJobs[j.Kernel]++
		}
	}
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
		fmt.Sprintf("vpicd_particles_advanced_total %d", pushed),
		fmt.Sprintf("vpicd_particle_advance_rate_mpart_s %.6g", rate),
		"# HELP vpicd_comm_wait_seconds_total Time ranks spent blocked in receives, collectives included, summed over ranks.",
		fmt.Sprintf("vpicd_comm_wait_seconds_total %.6f", commWait),
		"# HELP vpicd_comm_overlap_seconds_total Interior push the particle migrants flew behind, on ranks with a remote face, summed over ranks.",
		fmt.Sprintf("vpicd_comm_overlap_seconds_total %.6f", commOverlap),
		fmt.Sprintf("vpicd_push_asm_available %d", b2i(push.AsmAvailable())),
		"# HELP vpicd_push_asm_lanes Particles the asm kernel pushes per block-routine call on this host: 32 (AVX-512), 8 (AVX2) or 0.",
		fmt.Sprintf("vpicd_push_asm_lanes %d", push.AsmLanes()),
	}
	// Which resolved push kernel ("asm"/"go") each job actually ran —
	// the spec may say "auto", so this is the host-side truth.
	for _, name := range []string{push.KernelAsm, push.KernelGo} {
		if n := kernelJobs[name]; n > 0 {
			lines = append(lines, fmt.Sprintf("vpicd_jobs_kernel{kernel=%q} %d", name, n))
		}
	}
	s.mu.Unlock()

	// Deterministic section order (the perf package's own ordering).
	names := make([]string, 0, len(perfSec))
	for name := range perfSec {
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool {
		return sectionOrder(names[a]) < sectionOrder(names[b])
	})
	for _, name := range names {
		lines = append(lines, fmt.Sprintf("vpicd_perf_seconds{section=%q} %.6f", name, perfSec[name]))
	}
	// Estimated data motion per section and the effective bandwidth it
	// implies — the figure of merit for the bandwidth-bound kernels.
	for _, name := range names {
		b := perfBytes[name]
		if b == 0 {
			continue
		}
		lines = append(lines, fmt.Sprintf("vpicd_perf_bytes_moved_total{section=%q} %d", name, b))
		if sec := perfSec[name]; sec > 0 {
			lines = append(lines, fmt.Sprintf("vpicd_perf_effective_gb_s{section=%q} %.6g", name, float64(b)/sec/1e9))
		}
	}

	// Per-link comm counters of decomposed jobs, rank-pair order.
	linkKeys := make([]linkKey, 0, len(linkSentB))
	for k := range linkSentB {
		linkKeys = append(linkKeys, k)
	}
	sort.Slice(linkKeys, func(a, b int) bool {
		if linkKeys[a].src != linkKeys[b].src {
			return linkKeys[a].src < linkKeys[b].src
		}
		return linkKeys[a].peer < linkKeys[b].peer
	})
	for _, k := range linkKeys {
		label := fmt.Sprintf("%d->%d", k.src, k.peer)
		lines = append(lines,
			fmt.Sprintf("vpicd_comm_link_bytes_sent_total{link=%q} %d", label, linkSentB[k]),
			fmt.Sprintf("vpicd_comm_link_msgs_sent_total{link=%q} %d", label, linkSentM[k]))
	}
	// Per-exchange-class traffic, in the domain layer's class order.
	classNames := make([]string, 0, len(classBytes))
	for name := range classBytes {
		classNames = append(classNames, name)
	}
	sort.Slice(classNames, func(a, b int) bool {
		return classOrder(classNames[a]) < classOrder(classNames[b])
	})
	for _, name := range classNames {
		lines = append(lines,
			fmt.Sprintf("vpicd_comm_class_bytes_total{class=%q} %d", name, classBytes[name]),
			fmt.Sprintf("vpicd_comm_class_msgs_total{class=%q} %d", name, classMsgs[name]))
	}
	// Load-balance observability: the measured push-time imbalance and
	// each rank's particle count per decomposed job (job-ID order).
	sort.Slice(imbalance, func(a, b int) bool { return imbalance[a].job < imbalance[b].job })
	for _, im := range imbalance {
		lines = append(lines, fmt.Sprintf("vpic_imbalance_ratio{job=%q} %.6f", im.job, im.ratio))
	}
	sort.Slice(rankCounts, func(a, b int) bool {
		if rankCounts[a].job != rankCounts[b].job {
			return rankCounts[a].job < rankCounts[b].job
		}
		return rankCounts[a].rank < rankCounts[b].rank
	})
	for _, rc := range rankCounts {
		lines = append(lines, fmt.Sprintf("vpicd_rank_particles{job=%q,rank=\"%d\"} %d", rc.job, rc.rank, rc.n))
	}
	// Physics attestation: the per-job conservation verdict.
	sort.Slice(phys, func(a, b int) bool { return phys[a].job < phys[b].job })
	for _, p := range phys {
		lines = append(lines, fmt.Sprintf("vpicd_job_physics_pass{job=%q} %d", p.job, p.pass))
	}

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

// classOrder maps an exchange-class name to its domain.CommClass index
// (unknown names sort last).
func classOrder(name string) int {
	for c := domain.CommClass(0); c < domain.NumCommClasses; c++ {
		if c.String() == name {
			return int(c)
		}
	}
	return int(domain.NumCommClasses)
}

// sectionOrder maps a section name to its perf.Section index (unknown
// names sort last).
func sectionOrder(name string) int {
	for sec := perf.Section(0); sec < perf.NumSections; sec++ {
		if sec.String() == name {
			return int(sec)
		}
	}
	return int(perf.NumSections)
}
