package deck

import (
	"fmt"
	"math"
	"sort"
)

// MaxSweepJobs bounds the Cartesian expansion of a sweep so a typo in a
// value list cannot enqueue an unbounded campaign.
const MaxSweepJobs = 4096

// Expand turns a base config plus a parameter sweep into the Cartesian
// product of configs — the service-tier form of the paper's parameter
// study (one deck per laser intensity, say). Keys name JSONConfig
// fields by their JSON tags; integer fields accept only integral
// values. Expansion order is deterministic: keys sorted alphabetically,
// values in the order given, so job N of a resubmitted sweep is always
// the same physical configuration. A nil or empty sweep returns the
// base config alone.
func (c JSONConfig) Expand(sweep map[string][]float64) ([]JSONConfig, error) {
	configs := []JSONConfig{c}
	if len(sweep) == 0 {
		return configs, nil
	}
	keys := make([]string, 0, len(sweep))
	for k, vs := range sweep {
		if len(vs) == 0 {
			return nil, fmt.Errorf("deck: sweep parameter %q has no values", k)
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		vs := sweep[k]
		if len(configs)*len(vs) > MaxSweepJobs {
			return nil, fmt.Errorf("deck: sweep expands to more than %d configs", MaxSweepJobs)
		}
		next := make([]JSONConfig, 0, len(configs)*len(vs))
		for _, base := range configs {
			for _, v := range vs {
				cc := base
				if err := cc.setSweep(k, v); err != nil {
					return nil, err
				}
				next = append(next, cc)
			}
		}
		configs = next
	}
	return configs, nil
}

// setSweep assigns one sweepable parameter by its JSON tag.
func (c *JSONConfig) setSweep(key string, v float64) error {
	setInt := func(dst *int) error {
		if v != math.Trunc(v) {
			return fmt.Errorf("deck: sweep parameter %q needs integer values, got %g", key, v)
		}
		*dst = int(v)
		return nil
	}
	switch key {
	case "a0":
		c.A0 = v
	case "n0":
		c.N0 = v
	case "uth":
		c.Uth = v
	case "drift":
		c.Drift = v
	case "amp":
		c.Amp = v
	case "te_ev":
		c.TeEV = v
	case "plateau_length":
		c.PlateauLength = v
	case "nx":
		return setInt(&c.NX)
	case "ppc":
		return setInt(&c.PPC)
	case "ranks":
		return setInt(&c.Ranks)
	case "workers":
		return setInt(&c.Workers)
	case "steps":
		return setInt(&c.Steps)
	case "mode":
		return setInt(&c.Mode)
	case "transverse_cells":
		return setInt(&c.TransverseCells)
	default:
		return fmt.Errorf("deck: unknown sweep parameter %q", key)
	}
	return nil
}
