// Package perf provides the wall-clock kernel breakdown and rate
// accounting used to reproduce the paper's performance reporting: which
// fraction of a step is spent in the particle inner loop versus sort,
// field solve, communication and diagnostics, and what flop rate the
// inner loop sustains.
package perf

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Section labels one timed kernel, matching the breakdown VPIC reports.
type Section int

const (
	Push  Section = iota // particle advance + current scatter (the inner loop)
	Sort                 // periodic particle counting sort
	Field                // Maxwell solve + divergence cleaning
	Comm                 // ghost/current/particle exchange
	Diag                 // diagnostics and I/O
	NumSections
)

func (s Section) String() string {
	switch s {
	case Push:
		return "push"
	case Sort:
		return "sort"
	case Field:
		return "field"
	case Comm:
		return "comm"
	case Diag:
		return "diag"
	}
	return fmt.Sprintf("Section(%d)", int(s))
}

// Breakdown accumulates wall time per section. It is not safe for
// concurrent use; each rank owns one. The cumulative counters are
// exported so a breakdown is a plain value: it serializes as JSON (the
// per-rank report carries one between processes) and Merge sums it
// across ranks.
type Breakdown struct {
	Sections [NumSections]time.Duration `json:"section_ns"`

	// Pipeline (intra-rank worker) accounting: summed worker-busy time
	// and parallel-region wall time per section, fed by the pipe pool
	// via AddParallel.
	Busy [NumSections]time.Duration `json:"busy_ns"`
	Wall [NumSections]time.Duration `json:"wall_ns"`

	// Estimated data motion per section (bytes), fed by the kernels'
	// traffic models (push run/segment counts, sort passes, accumulator
	// window sizes). Divided by the section's wall time this yields the
	// effective bandwidth the bandwidth-bound sections sustain.
	Bytes [NumSections]int64 `json:"section_bytes"`

	// Exchange accounting, kept OUTSIDE the section array: the wait is
	// the time the rank blocked in receives, collectives included
	// (already inside the sections that ran them, recorded here to show
	// how much was unhidable), and the overlap is the interior push the
	// particle exchange's migrants fly behind, on a rank with a remote
	// face — time that belongs to the push section, so counting it in
	// Sections would double-book wall time and push section shares past
	// 1.0.
	CommWaitSeconds    float64 `json:"comm_wait_seconds"`
	CommOverlapSeconds float64 `json:"comm_overlap_seconds"`

	started [NumSections]time.Time
	running [NumSections]bool
}

// Start begins timing a section.
func (b *Breakdown) Start(s Section) {
	b.started[s] = time.Now()
	b.running[s] = true
}

// Stop ends timing a section, accumulating the elapsed time, and
// returns it (0 when the section was not running).
func (b *Breakdown) Stop(s Section) time.Duration {
	return b.stopAt(s, time.Now())
}

// Switch ends section from and begins section to with one clock read —
// the boundary between adjacent sections — and returns from's elapsed
// time, as Stop does.
func (b *Breakdown) Switch(from, to Section) time.Duration {
	now := time.Now()
	d := b.stopAt(from, now)
	b.started[to] = now
	b.running[to] = true
	return d
}

func (b *Breakdown) stopAt(s Section, now time.Time) time.Duration {
	if !b.running[s] {
		return 0
	}
	d := now.Sub(b.started[s])
	b.Sections[s] += d
	b.running[s] = false
	return d
}

// Time runs fn inside Start/Stop of the section.
func (b *Breakdown) Time(s Section, fn func()) {
	b.Start(s)
	fn()
	b.Stop(s)
}

// Elapsed returns the accumulated time of a section.
func (b *Breakdown) Elapsed(s Section) time.Duration { return b.Sections[s] }

// Total returns the sum over all sections.
func (b *Breakdown) Total() time.Duration {
	var t time.Duration
	for _, d := range b.Sections {
		t += d
	}
	return t
}

// Fraction returns the section's share of the total (0 when nothing has
// been timed).
func (b *Breakdown) Fraction(s Section) float64 {
	tot := b.Total()
	if tot == 0 {
		return 0
	}
	return float64(b.Sections[s]) / float64(tot)
}

// AddCommWait records time spent blocked in receives.
func (b *Breakdown) AddCommWait(d time.Duration) { b.CommWaitSeconds += d.Seconds() }

// AddCommOverlap records exchange flight time that ran hidden behind
// compute. It deliberately does not feed any section accumulator: the
// wall time it spans is already booked to the overlapping compute
// section, so Total() and the section shares stay an exact partition of
// measured wall time.
func (b *Breakdown) AddCommOverlap(d time.Duration) { b.CommOverlapSeconds += d.Seconds() }

// CommWait returns the accumulated blocked exchange-wait time.
func (b *Breakdown) CommWait() time.Duration { return seconds(b.CommWaitSeconds) }

// CommOverlap returns the accumulated compute-hidden exchange time.
func (b *Breakdown) CommOverlap() time.Duration { return seconds(b.CommOverlapSeconds) }

// seconds converts a float seconds count back to a duration, rounding to
// the nearest nanosecond.
func seconds(s float64) time.Duration { return time.Duration(math.Round(s * 1e9)) }

// AddParallel records one or more pipeline-parallel regions inside a
// section: busy is the summed worker-busy time, wall the regions'
// elapsed wall time (as returned by pipe.Pool.TakeStats).
func (b *Breakdown) AddParallel(s Section, busy, wall time.Duration) {
	b.Busy[s] += busy
	b.Wall[s] += wall
}

// AddBytes records estimated data motion inside a section.
func (b *Breakdown) AddBytes(s Section, n int64) { b.Bytes[s] += n }

// BytesMoved returns the section's accumulated data-motion estimate.
func (b *Breakdown) BytesMoved(s Section) int64 { return b.Bytes[s] }

// EffectiveGBs returns the section's effective bandwidth in GB/s —
// estimated bytes moved over accumulated wall time — or 0 when nothing
// was recorded.
func (b *Breakdown) EffectiveGBs(s Section) float64 {
	if b.Sections[s] <= 0 || b.Bytes[s] == 0 {
		return 0
	}
	return float64(b.Bytes[s]) / b.Sections[s].Seconds() / 1e9
}

// Concurrency returns the average number of busy workers over the
// section's pipeline-parallel regions (busy/wall), or 0 when the
// section ran no parallel regions. Divide by the configured worker
// count for a [0,1] utilization.
func (b *Breakdown) Concurrency(s Section) float64 {
	if b.Wall[s] == 0 {
		return 0
	}
	return float64(b.Busy[s]) / float64(b.Wall[s])
}

// Reset zeroes all accumulators.
func (b *Breakdown) Reset() { *b = Breakdown{} }

// Merge adds another breakdown's accumulators into this one (for
// cross-rank aggregation).
func (b *Breakdown) Merge(o *Breakdown) {
	for s := Section(0); s < NumSections; s++ {
		b.Sections[s] += o.Sections[s]
		b.Busy[s] += o.Busy[s]
		b.Wall[s] += o.Wall[s]
		b.Bytes[s] += o.Bytes[s]
	}
	b.CommWaitSeconds += o.CommWaitSeconds
	b.CommOverlapSeconds += o.CommOverlapSeconds
}

// Report formats the breakdown as aligned text rows. The workers column
// is the average pipeline concurrency of each section's parallel
// regions (blank when a section has none).
func (b *Breakdown) Report() string {
	var sb strings.Builder
	tot := b.Total()
	fmt.Fprintf(&sb, "%-8s %12s %8s %8s %9s\n", "section", "time", "share", "workers", "GB/s")
	for s := Section(0); s < NumSections; s++ {
		w := ""
		if c := b.Concurrency(s); c > 0 {
			w = fmt.Sprintf("%.2f", c)
		}
		gbs := ""
		if r := b.EffectiveGBs(s); r > 0 {
			gbs = fmt.Sprintf("%.2f", r)
		}
		fmt.Fprintf(&sb, "%-8s %12v %7.1f%% %8s %9s\n", s, b.Sections[s].Round(time.Microsecond), 100*b.Fraction(s), w, gbs)
	}
	fmt.Fprintf(&sb, "%-8s %12v\n", "total", tot.Round(time.Microsecond))
	if b.CommWaitSeconds > 0 || b.CommOverlapSeconds > 0 {
		fmt.Fprintf(&sb, "%-8s %12v   (overlapped with compute: %v)\n",
			"comm i/o", b.CommWait().Round(time.Microsecond), b.CommOverlap().Round(time.Microsecond))
	}
	return sb.String()
}

// Rate converts an operation count over a duration into ops/second.
func Rate(ops int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(ops) / d.Seconds()
}
