// Package valid is the physics-validation subsystem: a registry of
// validation cases, each binding a deck (through the internal/deck JSON
// front end), an observable extractor riding the diagnostics, and
// verdict rules comparing measured observables against internal/theory
// analytic values or committed reference bands with explicit
// tolerances. The perf gate (cmd/bench) keeps the code fast; this keeps
// it *right* — every optimization (AoSoA lanes, overlap, dynamic
// balance) re-proves Landau damping, two-stream growth, Weibel, the
// Langmuir branch, energy conservation, TNSA ion acceleration and the
// paper's SRS reflectivity and trapping on every CI push.
//
// Verdict model: a Check either pins an observable to a reference value
// with a relative tolerance (RelTol > 0: |obs − Ref| ≤ RelTol·|Ref|,
// used where theory gives a number — kinetic dispersion, cold-beam
// growth) or brackets it in an absolute band [Lo, Hi] (used where
// theory gives a scale — ponderomotive hot-electron temperature,
// conservation bounds). NaN or ±Inf observables always fail. Runs are
// bit-deterministic for a fixed deck, so bands carry margin for physics
// fidelity, not for run-to-run noise.
package valid

import (
	"fmt"
	"math"

	"govpic/internal/deck"
)

// Tier selects how much of the registry runs: fast is the every-push
// CI budget (seconds per case), full adds the longer cases.
type Tier string

const (
	TierFast Tier = "fast"
	TierFull Tier = "full"
)

// Obs is what a case's extractor measured: named scalars (what Checks
// verdict on) and named series (spectra, histories — recorded in the
// report for humans and plots, not gated).
type Obs struct {
	Scalars map[string]float64
	Series  map[string][]float64
}

// Check is one verdict rule on one scalar observable.
type Check struct {
	// Observable names the Obs.Scalars key under verdict.
	Observable string `json:"observable"`
	// Ref and RelTol pin the observable to a reference value when
	// RelTol > 0: pass iff |obs − Ref| ≤ RelTol·|Ref|.
	Ref    float64 `json:"ref,omitempty"`
	RelTol float64 `json:"rel_tol,omitempty"`
	// Lo and Hi bracket the observable when RelTol == 0: pass iff
	// Lo ≤ obs ≤ Hi.
	Lo float64 `json:"lo,omitempty"`
	Hi float64 `json:"hi,omitempty"`
	// Note records where the reference comes from (theory function,
	// comparison paper, committed baseline).
	Note string `json:"note,omitempty"`
}

// Eval verdicts a measured value against the rule.
func (c Check) Eval(v float64) CheckResult {
	r := CheckResult{Check: c, Measured: v}
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		r.Pass = false
	case c.RelTol > 0:
		r.Pass = math.Abs(v-c.Ref) <= c.RelTol*math.Abs(c.Ref)
	default:
		r.Pass = v >= c.Lo && v <= c.Hi
	}
	return r
}

// CheckResult is one evaluated rule.
type CheckResult struct {
	Check
	Measured float64 `json:"measured"`
	Pass     bool    `json:"pass"`
}

// Case binds a deck spec, an observable extractor, and verdict rules.
type Case struct {
	// Name identifies the case in reports, metrics and the CLI.
	Name string
	// About is a one-line description of the physics under test.
	About string
	// Tier is the cheapest tier that includes the case.
	Tier Tier
	// Spec describes the deck through the JSON front end — the same
	// config a user would run, so validation exercises the full
	// deck-building path (including its hardening).
	Spec deck.JSONConfig
	// Observe drives the run (it owns the Step loop, bounded by steps)
	// and extracts the observables. The probe abstracts in-process
	// all-ranks simulations and single-rank RankSim members identically.
	Observe func(p Probe, d deck.Deck, steps int) (Obs, error)
	// Checks derives the verdict rules, typically from the built deck's
	// Notes (which carry the analytic references).
	Checks func(d deck.Deck) ([]Check, error)
}

// Registry holds the registered cases in registration order.
type Registry struct {
	cases []Case
	names map[string]bool
}

// Register adds a case; duplicate or empty names and nil hooks are
// programming errors and rejected.
func (r *Registry) Register(c Case) error {
	if c.Name == "" || c.Observe == nil || c.Checks == nil {
		return fmt.Errorf("valid: case %q incomplete", c.Name)
	}
	if c.Tier != TierFast && c.Tier != TierFull {
		return fmt.Errorf("valid: case %q has unknown tier %q", c.Name, c.Tier)
	}
	if r.names == nil {
		r.names = map[string]bool{}
	}
	if r.names[c.Name] {
		return fmt.Errorf("valid: duplicate case %q", c.Name)
	}
	r.names[c.Name] = true
	r.cases = append(r.cases, c)
	return nil
}

// Cases returns the cases the tier includes: fast returns the fast
// tier, full returns everything.
func (r *Registry) Cases(tier Tier) []Case {
	var out []Case
	for _, c := range r.cases {
		if tier == TierFull || c.Tier == TierFast {
			out = append(out, c)
		}
	}
	return out
}

// Lookup returns the named case.
func (r *Registry) Lookup(name string) (Case, bool) {
	for _, c := range r.cases {
		if c.Name == name {
			return c, true
		}
	}
	return Case{}, false
}
