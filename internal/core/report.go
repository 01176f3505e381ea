package core

import (
	"govpic/internal/balance"
	"govpic/internal/domain"
	"govpic/internal/perf"
	psort "govpic/internal/sort"
)

// RankReport is one rank's cumulative performance record since this
// member was built: the one per-rank perf surface. It is a plain value that
// JSON-serializes as is, so a distributed run ships it between
// processes unchanged, and every report consumer (vpic's end-of-run
// block and artifacts, vpicd's job status and metrics, the experiment
// harnesses) formats a []RankReport. DESIGN §9.5 names each field's
// readers.
type RankReport struct {
	Rank      int   `json:"rank"`
	Particles int   `json:"particles"` // resident particles, all species
	Pushed    int64 `json:"pushed"`    // particle advances
	Moved     int64 `json:"moved"`     // advances that crossed a cell face
	Flops     int64 `json:"flops"`     // inner-loop flops under the audited count

	// Section times, data motion, worker busy/wall and the exchange
	// wait/overlap split.
	perf.Breakdown

	SortPasses psort.Passes        `json:"sort_passes"`
	Classes    []domain.ClassStat  `json:"classes,omitempty"` // sent traffic per exchange class, class order
	Links      []perf.CommLinkStat `json:"links,omitempty"`   // transport counters per peer link
}

// Report returns this rank's report. It reads local counters only and
// communicates nothing, so members may call it at different times.
func (rs *RankSim) Report() RankReport {
	rk := rs.Rank
	r := RankReport{
		Rank:       rs.comm.Rank(),
		Particles:  rk.particles(),
		Breakdown:  rk.Perf,
		SortPasses: rk.sortWS.Passes(),
		Classes:    rk.D.ClassTraffic(),
	}
	for _, k := range rk.Kernels {
		r.Pushed += k.NPushed
		r.Moved += k.NMoved
		r.Flops += k.Flops()
	}
	if st := rs.comm.Stats(); st != nil {
		r.Links = st.Snapshot()
	}
	return r
}

// SumReports returns the world totals of the given per-rank reports:
// counts and sort passes summed, breakdowns merged, classes summed in
// class order and links concatenated in report order. The total's Rank
// is zero. Per-rank views (particle counts, the push-time imbalance) are
// read from the slice itself.
func SumReports(reps []RankReport) RankReport {
	var t RankReport
	for i := range reps {
		r := &reps[i]
		t.Particles += r.Particles
		t.Pushed += r.Pushed
		t.Moved += r.Moved
		t.Flops += r.Flops
		t.Merge(&r.Breakdown)
		t.SortPasses.Merge(r.SortPasses)
		t.Links = append(t.Links, r.Links...)
	}
	for c := domain.CommClass(0); c < domain.NumCommClasses; c++ {
		sum := domain.ClassStat{Class: c.String()}
		for _, r := range reps {
			for _, st := range r.Classes {
				if st.Class == sum.Class {
					sum.Bytes += st.Bytes
					sum.Msgs += st.Msgs
				}
			}
		}
		if sum.Msgs > 0 {
			t.Classes = append(t.Classes, sum)
		}
	}
	return t
}

// RankLoad returns each rank's resident particle count and the max/mean
// of the ranks' cumulative push seconds.
func RankLoad(reps []RankReport) ([]int, float64) {
	particles := make([]int, len(reps))
	push := make([]float64, len(reps))
	for i := range reps {
		particles[i] = reps[i].Particles
		push[i] = reps[i].Elapsed(perf.Push).Seconds()
	}
	return particles, balance.MaxOverMean(push)
}
