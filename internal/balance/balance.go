// Package balance implements the dynamic load balancer's arithmetic:
// the imbalance measure and the plane-layout computation that turns a
// particle distribution into a new domain partition. Everything here is
// pure computation — the package has no knowledge of ranks, transports
// or grids, so every rank of a world computing it from the same
// allreduced counts gets the same answer.
package balance

import "fmt"

// Mode selects whether the balancer is allowed to act.
type Mode int

const (
	// Off disables rebalancing entirely: the static decomposition of
	// the deck is kept for the whole run.
	Off Mode = iota
	// Online repartitions between steps: when the particle imbalance
	// crosses the threshold, the x-cuts jump to the bisection layout.
	Online
)

func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case Online:
		return "online"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses the -balance flag / deck value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "off":
		return Off, nil
	case "online":
		return Online, nil
	}
	return Off, fmt.Errorf("balance: unknown mode %q (want off|online)", s)
}

// MaxOverMean returns max(w)/mean(w), or 1 for an empty or all-zero
// slice (no work is perfectly balanced).
func MaxOverMean(w []float64) float64 {
	if len(w) == 0 {
		return 1
	}
	var sum, max float64
	for _, v := range w {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum <= 0 {
		return 1
	}
	return max * float64(len(w)) / sum
}
