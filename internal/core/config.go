// Package core assembles the substrates into the full simulation: it
// owns the multi-rank world, orchestrates the VPIC time step (sort →
// interpolate → push/deposit → particle exchange → current reduction →
// field advance → divergence cleaning), and exposes global diagnostics
// and checkpointing.
package core

import (
	"fmt"

	"govpic/internal/balance"
	"govpic/internal/field"
	"govpic/internal/grid"
	"govpic/internal/laser"
	"govpic/internal/loader"
	"govpic/internal/pipe"
	"govpic/internal/push"
)

// BalanceConfig tunes the dynamic load balancer (see internal/balance
// and DESIGN §13). The zero value disables it.
type BalanceConfig struct {
	// Mode selects off / online rebalancing.
	Mode balance.Mode
	// Interval is the number of steps between online imbalance checks
	// (0 resolves to 10). The check itself is one small collective.
	Interval int
	// Threshold is the max/mean particle imbalance that triggers a
	// repartition (0 resolves to 1.25; must be ≥ 1). The LPI deck on 4
	// and 8 ranks starts at 1.17–1.19, so the default first moves its
	// cuts only once the plasma has moved (after step 150 on 8 ranks,
	// 700 on 4 at ppc 64); 1.1 moves them at the first check.
	Threshold float64
}

// SpeciesConfig declares one kinetic species.
type SpeciesConfig struct {
	Name string
	// Q and M in units of e and me.
	Q, M float64
	// SortInterval: steps between counting sorts (0 disables).
	SortInterval int
	// Load describes the initial plasma; nil starts the species empty.
	Load *loader.Params
	// NeutralizePrevious co-locates this species with the previously
	// declared species' particles (ignoring Load), producing an exactly
	// neutral start. Q must be positive and is used as the charge state.
	NeutralizePrevious bool
}

// Config describes a complete simulation.
type Config struct {
	// Global interior cell counts and cell sizes (code units).
	NX, NY, NZ int
	DX, DY, DZ float64
	// DT is the time step; it must be positive and below the Courant
	// limit of the cell.
	DT float64
	// NRanks decomposes the domain; 1 runs single-rank.
	NRanks int
	// Workers is the number of intra-rank pipeline workers driving the
	// particle push, current reduction and field sweeps — the software
	// analogue of the paper's per-Cell SPE pipelines. 0 resolves to
	// pipe.DefaultWorkers(NRanks) (≈ CPUs per rank); values above
	// pipe.NumBlocks are capped there. Results are bit-identical for
	// every worker count.
	Workers int

	FieldBC    [field.NumFaces]field.BC
	ParticleBC [field.NumFaces]push.Action

	Species []SpeciesConfig

	// Lasers optionally drive antennas (pump, seeds, ...).
	Lasers []*laser.Antenna

	// CleanInterval applies CleanPasses Marder div-E (and div-B) passes
	// every CleanInterval steps (0 disables cleaning).
	CleanInterval int
	CleanPasses   int

	// NeutralizingBackground captures the initial charge density as a
	// static immobile background, so div-E cleaning targets
	// ρ_mobile − ρ_initial. Use for electron-only decks (immobile ions).
	NeutralizingBackground bool

	// Kernel selects the routine that pushes the particle blocks (see
	// internal/push): "asm" (the widest assembly routine, push.AsmLanes),
	// "go" (portable), or ""/"auto" — asm whenever the CPU has one.
	// Validate resolves it to the concrete "asm" or "go" that will run,
	// so reports and bench records always name the kernel that produced
	// them. A speed knob only: the two are bitwise identical.
	Kernel string

	// Balance configures the dynamic load balancer. Any mode other
	// than off forces an x-only decomposition (PX = NRanks).
	Balance BalanceConfig
}

// Validate checks the configuration and returns a descriptive error.
func (c *Config) Validate() error {
	if c.NRanks == 0 {
		c.NRanks = 1
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: negative Workers %d", c.Workers)
	}
	if c.Workers == 0 {
		c.Workers = pipe.DefaultWorkers(c.NRanks)
	}
	if c.Workers > pipe.NumBlocks {
		c.Workers = pipe.NumBlocks
	}
	kernel, err := push.ResolveKernel(c.Kernel)
	if err != nil {
		return err
	}
	c.Kernel = kernel
	if c.NX < 1 || c.NY < 1 || c.NZ < 1 {
		return fmt.Errorf("core: cell counts %d×%d×%d invalid", c.NX, c.NY, c.NZ)
	}
	if c.DX <= 0 || c.DY <= 0 || c.DZ <= 0 {
		return fmt.Errorf("core: cell sizes must be positive")
	}
	g, err := grid.New(c.NX, c.NY, c.NZ, c.DX, c.DY, c.DZ, 0, 0, 0)
	if err != nil {
		return err
	}
	if c.DT <= 0 || c.DT >= g.CourantLimit() {
		return fmt.Errorf("core: DT %g outside (0, %g) Courant window", c.DT, g.CourantLimit())
	}
	for face, bc := range c.FieldBC {
		if bc == field.Remote {
			return fmt.Errorf("core: FieldBC[%d] is %v: only the domain marks a face remote", face, bc)
		}
	}
	if len(c.Species) == 0 {
		return fmt.Errorf("core: no species declared")
	}
	names := map[string]bool{}
	for i, s := range c.Species {
		if s.Name == "" || names[s.Name] {
			return fmt.Errorf("core: species %d has empty or duplicate name %q", i, s.Name)
		}
		names[s.Name] = true
		if s.M <= 0 || s.Q == 0 {
			return fmt.Errorf("core: species %q has invalid Q=%g M=%g", s.Name, s.Q, s.M)
		}
		if s.NeutralizePrevious {
			if i == 0 {
				return fmt.Errorf("core: species %q cannot neutralize: no previous species", s.Name)
			}
			if s.Q <= 0 {
				return fmt.Errorf("core: neutralizing species %q needs positive charge", s.Name)
			}
		}
	}
	for _, a := range c.Lasers {
		if err := a.Validate(); err != nil {
			return err
		}
	}
	if c.CleanInterval < 0 || c.CleanPasses < 0 {
		return fmt.Errorf("core: negative cleaning parameters")
	}
	if c.CleanInterval > 0 && c.CleanPasses == 0 {
		c.CleanPasses = 2
	}
	if c.Balance.Interval == 0 {
		c.Balance.Interval = 10
	}
	if c.Balance.Interval < 1 {
		return fmt.Errorf("core: Balance.Interval %d must be ≥ 1", c.Balance.Interval)
	}
	if c.Balance.Threshold == 0 {
		c.Balance.Threshold = 1.25
	}
	if c.Balance.Threshold < 1 {
		return fmt.Errorf("core: Balance.Threshold %g must be ≥ 1", c.Balance.Threshold)
	}
	if c.Balance.Mode != balance.Off && c.NX < c.NRanks {
		return fmt.Errorf("core: balance mode %s needs NX ≥ NRanks (%d < %d)", c.Balance.Mode, c.NX, c.NRanks)
	}
	return nil
}

// CourantDT returns frac times the global Courant limit, a convenience
// for deck builders.
func (c *Config) CourantDT(frac float64) float64 {
	g := grid.MustNew(c.NX, c.NY, c.NZ, c.DX, c.DY, c.DZ)
	return frac * g.CourantLimit()
}
