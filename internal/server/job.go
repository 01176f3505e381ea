// Package server implements vpicd's service tier: a bounded FIFO job
// queue with explicit backpressure, a runner pool that runs each job as
// dist.Members (the member loop vpic runs) through one after-step hook,
// a crash-safe spool of checkpoints and results, and the HTTP API
// (submit/status/result/cancel plus health and metrics). It turns the
// repository's one-shot CLIs into the parameter-study service the
// paper's reflectivity campaign implies: submit a deck (or a sweep over
// deck parameters), watch progress, survive restarts.
package server

import (
	"time"

	"govpic/internal/core"
	"govpic/internal/deck"
	"govpic/internal/diag"
)

// State is a job's lifecycle phase.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateCompleted State = "completed"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether a job in this state will never run again.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateCancelled
}

// Progress is the live view of a running job: Step is set after every
// step, the totals (here and the Job's Reports) at every
// sampling step (Config.EnergyEvery) and the last. A cancel or preempt
// stops the run at the next sampling step, within EnergyEvery steps.
type Progress struct {
	Step      int `json:"step"`
	Steps     int `json:"steps"`
	Particles int `json:"particles"`
	// RateMPartS is the particle-advance rate since the job (re)started,
	// in millions of particle-steps per second — the paper's headline
	// unit.
	RateMPartS float64 `json:"rate_mpart_s"`
}

// Job is one enqueued deck run. The exported fields are the wire and
// spool representation; runtime-only state (cancel func, preempt flag)
// lives unexported and is guarded by the server mutex.
type Job struct {
	ID        string          `json:"id"`
	Spec      deck.JSONConfig `json:"spec"`
	State     State           `json:"state"`
	Error     string          `json:"error,omitempty"`
	Submitted time.Time       `json:"submitted"`
	Progress  Progress        `json:"progress"`
	// Reports are every rank's cumulative perf records at the latest
	// sampling step, the records vpic -comm-json writes. Each gather
	// replaces the slice; nothing mutates a published one.
	Reports []core.RankReport `json:"reports,omitempty"`
	// Kernel is the resolved push block routine the job runs on this
	// host ("asm" or "go") — the Spec may say "auto"; this is what
	// actually executed. Set at the first step.
	Kernel string `json:"kernel,omitempty"`
	// CheckpointStep is the step of the latest durable checkpoint (0 if
	// none yet): the step a restart on the same spool resumes from.
	CheckpointStep int `json:"checkpoint_step,omitempty"`
	// Physics is the job's physics attestation, computed from the energy
	// history when the job completes: every job carries its own
	// conservation verdict alongside its perf counters (the suite-level
	// validation lives in internal/valid).
	Physics *PhysicsAttestation `json:"physics,omitempty"`

	cancel    func() // non-nil while running
	preempted bool   // cancellation is a shutdown preemption, not a user cancel
}

// PhysicsAttestation is a completed job's self-check against the
// conservation laws the step must honor regardless of deck: finite
// energies always; div B preserved to float32 rounding always; total
// energy drift bounded only when nothing drives or drains the budget
// (undriven periodic decks — antennas and absorbing walls legitimately
// move the total, so driven runs record the drift without gating on it).
type PhysicsAttestation struct {
	// EnergyDrift is (E_final − E_initial)/E_initial over the history.
	EnergyDrift float64 `json:"energy_drift"`
	// MaxDivBError is the largest relative div-B error sampled.
	MaxDivBError float64 `json:"max_div_b_error"`
	// Finite reports that every sampled energy was finite.
	Finite bool `json:"finite"`
	// Driven marks decks whose energy budget is open (lasers or
	// absorbing particle walls); their drift is informational.
	Driven bool `json:"driven"`
	Pass   bool `json:"pass"`
}

// Summary is a completed job's run record.
type Summary struct {
	Deck      string             `json:"deck"`
	Steps     int                `json:"steps"`
	Time      float64            `json:"time"`
	Particles int                `json:"particles"`
	Ranks     int                `json:"ranks"`
	WallClock float64            `json:"wall_clock_s"`
	Rates     map[string]float64 `json:"rates,omitempty"`
	Energy    map[string]float64 `json:"energy,omitempty"`
	Notes     map[string]float64 `json:"notes,omitempty"`
}

// Result is the completed-job artifact: the run summary plus the full
// energy history, and every rank's end-of-run state CRC (core's
// StateCRC), space-joined hex in rank order as vpic's "state CRCs:"
// line prints them, so bit-exact reproducibility across preemptions is
// checkable from the API alone.
type Result struct {
	Summary  Summary             `json:"summary"`
	History  []diag.EnergySample `json:"history"`
	StateCRC string              `json:"state_crc"`
	// Physics is the attestation also published on the Job.
	Physics *PhysicsAttestation `json:"physics,omitempty"`
}
