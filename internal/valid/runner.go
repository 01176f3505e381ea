package valid

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"

	"govpic/internal/deck"
	"govpic/internal/mp"
	"govpic/internal/output"
)

// CaseResult is one executed case: its observables, its evaluated
// checks, and the verdict.
type CaseResult struct {
	Name        string               `json:"name"`
	About       string               `json:"about,omitempty"`
	Tier        string               `json:"tier"`
	Seconds     float64              `json:"seconds"`
	Observables map[string]float64   `json:"observables,omitempty"`
	Series      map[string][]float64 `json:"series,omitempty"`
	Checks      []CheckResult        `json:"checks,omitempty"`
	Pass        bool                 `json:"pass"`
	Error       string               `json:"error,omitempty"`
}

// Report is the structured output of a suite run, written as
// VALID_<date>.json.
type Report struct {
	Date    string       `json:"date"`
	Tier    string       `json:"tier"`
	Pass    bool         `json:"pass"`
	Seconds float64      `json:"seconds"`
	Cases   []CaseResult `json:"cases"`
}

// RunCase executes one case on an in-process world of as many members
// as its deck decomposes into (Spec.Ranks, unless the builder pins the
// rank count): every member builds its rank through Deck.NewRank and
// runs the case's Observe, whose observables are collectives; member
// 0's result is the case's.
func RunCase(c Case) CaseResult {
	start := time.Now()
	res := CaseResult{Name: c.Name, About: c.About, Tier: string(c.Tier)}
	d, err := c.Spec.Build()
	if err != nil {
		return res.fail(start, fmt.Errorf("build deck: %w", err))
	}
	var out CaseResult
	mp.Run(d.Cfg.NRanks, func(comm *mp.Comm) {
		var r CaseResult
		if rs, err := d.NewRank(comm); err != nil {
			r = res.fail(start, fmt.Errorf("new rank sim: %w", err))
		} else {
			r = res.finish(start, c, d, NewProbe(rs))
		}
		if comm.Rank() == 0 {
			out = r
		}
	})
	return out
}

func (res CaseResult) fail(start time.Time, err error) CaseResult {
	res.Seconds = time.Since(start).Seconds()
	res.Error = err.Error()
	return res
}

func (res CaseResult) finish(start time.Time, c Case, d deck.Deck, p Probe) CaseResult {
	obs, err := c.Observe(p, d, c.Spec.Steps)
	if err != nil {
		return res.fail(start, fmt.Errorf("observe: %w", err))
	}
	checks, err := c.Checks(d)
	if err != nil {
		return res.fail(start, fmt.Errorf("checks: %w", err))
	}
	res.Observables = sanitizeMap(obs.Scalars)
	res.Series = sanitizeSeries(obs.Series)
	res.Pass = true
	for _, ck := range checks {
		v, ok := obs.Scalars[ck.Observable]
		if !ok {
			v = math.NaN() // Eval fails NaN; sanitize below keeps JSON valid
		}
		cr := ck.Eval(v)
		cr.Measured = sanitize(cr.Measured)
		cr.Ref = sanitize(cr.Ref)
		cr.Lo, cr.Hi = sanitize(cr.Lo), sanitize(cr.Hi)
		if !cr.Pass {
			res.Pass = false
		}
		res.Checks = append(res.Checks, cr)
	}
	res.Seconds = time.Since(start).Seconds()
	return res
}

// RunSuite executes the cases in order (typically Registry.Cases(tier))
// and assembles the report under that tier's name. logf (optional)
// receives one line per case as it completes.
func RunSuite(cases []Case, tier Tier, logf func(format string, args ...any)) Report {
	start := time.Now()
	rep := Report{
		Date: time.Now().UTC().Format("2006-01-02"),
		Tier: string(tier),
		Pass: true,
	}
	for _, c := range cases {
		res := RunCase(c)
		if !res.Pass {
			rep.Pass = false
		}
		if logf != nil {
			logf("%s", FormatCase(res))
		}
		rep.Cases = append(rep.Cases, res)
	}
	rep.Seconds = time.Since(start).Seconds()
	return rep
}

// FormatCase renders one case result as the human-readable suite line.
func FormatCase(res CaseResult) string {
	verdict := "PASS"
	if !res.Pass {
		verdict = "FAIL"
	}
	if res.Error != "" {
		return fmt.Sprintf("%-24s ERROR  %5.1fs  %s", res.Name, res.Seconds, res.Error)
	}
	// Stable observable order for readable, diffable output.
	keys := make([]string, 0, len(res.Observables))
	for k := range res.Observables {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	line := fmt.Sprintf("%-24s %s   %5.1fs ", res.Name, verdict, res.Seconds)
	for _, k := range keys {
		line += fmt.Sprintf(" %s=%.4g", k, res.Observables[k])
	}
	return line
}

// Write emits the report as VALID_<date>.json in dir and returns the
// path.
func (rep Report) Write(dir string) (string, error) {
	path := filepath.Join(dir, "VALID_"+rep.Date+".json")
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	return path, output.WriteFile(path, append(data, '\n'), 0o644)
}

// sanitize maps NaN/±Inf onto JSON-encodable values (0 / ±MaxFloat64);
// verdicts are evaluated on the raw values before sanitizing, so a
// non-finite observable still fails its check.
func sanitize(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

func sanitizeMap(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = sanitize(v)
	}
	return out
}

func sanitizeSeries(m map[string][]float64) map[string][]float64 {
	out := make(map[string][]float64, len(m))
	for k, vs := range m {
		cp := make([]float64, len(vs))
		for i, v := range vs {
			cp[i] = sanitize(v)
		}
		out[k] = cp
	}
	return out
}
