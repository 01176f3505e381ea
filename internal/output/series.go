package output

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// SeriesEntry is one point of the committed benchmark time series
// (bench/series.json): the headline figures of a BenchRecord keyed by
// the commit, date and push kernel that produced them. The series is
// the repo's perf trajectory — unlike the one-off BENCH_<date>.json
// snapshots it survives re-anchors and lets regressions be traced to
// the commit that introduced them (ROADMAP item 5).
type SeriesEntry struct {
	Commit string `json:"commit"`
	Date   string `json:"date"` // YYYY-MM-DD
	// Kernel is the push kernel's span routine ("asm" or "go");
	// empty on entries backfilled from records predating the switch.
	Kernel    string `json:"kernel,omitempty"`
	Deck      string `json:"deck"`
	Steps     int    `json:"steps"`
	Particles int    `json:"particles"`
	Ranks     int    `json:"ranks"`
	Workers   int    `json:"workers"`
	// The gated figures of merit: throughput, arithmetic rate, and the
	// modeled push-section memory traffic per particle-step.
	MPartPerS    float64 `json:"mpart_per_s"`
	GFlopPerS    float64 `json:"gflop_per_s"`
	BytesPerPush float64 `json:"bytes_per_push,omitempty"`
	// Comm posture, so overlap regressions show up in the trajectory.
	CommWaitSeconds    float64 `json:"comm_wait_seconds,omitempty"`
	CommOverlapSeconds float64 `json:"comm_overlap_seconds,omitempty"`
}

// Key identifies the run configuration a series entry measures:
// re-benchmarking the same commit/deck/kernel updates the entry in
// place instead of duplicating it.
func (e SeriesEntry) Key() string {
	return e.Commit + "|" + e.Deck + "|" + e.Kernel
}

// SeriesEntryFromBench projects a benchmark record onto the series
// schema. The commit is supplied by the caller (the record itself is
// commit-agnostic).
func SeriesEntryFromBench(commit string, r BenchRecord) SeriesEntry {
	e := SeriesEntry{
		Commit:             commit,
		Date:               r.Date,
		Kernel:             r.Kernel,
		Deck:               r.Deck,
		Steps:              r.Steps,
		Particles:          r.Particles,
		Ranks:              r.Ranks,
		Workers:            r.Workers,
		MPartPerS:          r.MPartPerS,
		GFlopPerS:          r.GFlopPerS,
		CommWaitSeconds:    r.CommWaitSeconds,
		CommOverlapSeconds: r.CommOverlapSeconds,
	}
	for _, s := range r.Sections {
		if s.Name == "push" && s.BytesMoved > 0 && r.Particles > 0 && r.Steps > 0 {
			e.BytesPerPush = float64(s.BytesMoved) / (float64(r.Particles) * float64(r.Steps))
		}
	}
	return e
}

// ReadSeries parses a series file. An empty input yields an empty
// series (a fresh repo has no trajectory yet).
func ReadSeries(r io.Reader) ([]SeriesEntry, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, nil
	}
	var entries []SeriesEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("output: bad series: %w", err)
	}
	return entries, nil
}

// WriteSeries emits the series as indented JSON, one entry per point,
// in the stable (date, commit, deck, kernel) order so appends produce
// minimal committed diffs.
func WriteSeries(w io.Writer, entries []SeriesEntry) error {
	sorted := append([]SeriesEntry(nil), entries...)
	sort.SliceStable(sorted, func(a, b int) bool {
		ea, eb := sorted[a], sorted[b]
		if ea.Date != eb.Date {
			return ea.Date < eb.Date
		}
		if ea.Commit != eb.Commit {
			return ea.Commit < eb.Commit
		}
		if ea.Deck != eb.Deck {
			return ea.Deck < eb.Deck
		}
		return ea.Kernel < eb.Kernel
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sorted)
}

// AppendSeries adds an entry, replacing any existing entry with the
// same (commit, deck, kernel) key — re-running a benchmark on the
// same commit refreshes its point rather than duplicating it.
func AppendSeries(entries []SeriesEntry, e SeriesEntry) []SeriesEntry {
	for i := range entries {
		if entries[i].Key() == e.Key() {
			entries[i] = e
			return entries
		}
	}
	return append(entries, e)
}
