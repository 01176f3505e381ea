// Package wait is the one policy by which a goroutine waits for another
// without an OS wake-up, as the paper's ranks and SPE pipelines hand
// work to each other for the whole run: it yields its processor until a
// condition holds or Window has passed; the caller then parks, exits or
// waits again.
package wait

import (
	"runtime"
	"time"
)

// Window is how long Until yields before it gives up. It outlasts most
// waits of a step, so a waiter keeps its processor through them, and a
// waiter whose peer has stopped gives it back within a millisecond.
// Measured on a 2-vCPU Xeon:
//   - World receives (internal/mp, EXPERIMENTS P74): eight rounds of the
//     exchange.2rank bench workload moved its median step from 0.187 ms
//     (parking at once) to 0.163, 0.146 and 0.142 ms at windows of 50,
//     200 and 500 µs, and thermal.2rank's from 3.07 ms to 2.86 and
//     2.74 ms at 200 and 500 µs. Worlds with more ranks than processors
//     spin too: against parking at once, 3 000 thermal steps took 2.86 s
//     against 3.02 s on 4 ranks (10 of 10 pairs), 3.05 against 3.07 on 8
//     (4 of 10).
//   - Pool helpers (internal/pipe) live through the serial work between
//     an ordinary step's regions: on the lpi deck at two workers (ppc
//     512, 1 600 steps) 206 of 6 720 regions started a helper.
//   - Lockstep members (internal/core, EXPERIMENTS P85) live from one
//     step to the next: on exchange.2rank (medians of 10 runs) a
//     goroutine per member per step gave 32.5 Mpart/s and outliving
//     members 51.0, as each step woke a parked thread that the guest
//     kernel could place beside the running one, so a receive waited
//     out its window.
const Window = 500 * time.Microsecond

// Until yields the processor until ready reports true or Window has
// passed, and reports whether ready holds. It reads the clock once
// before the first yield and once per 16 yields after, and none when
// ready holds at the first look.
func Until(ready func() bool) bool {
	if ready() {
		return true
	}
	start := time.Now()
	for i := 1; ; i++ {
		runtime.Gosched()
		if ready() {
			return true
		}
		if i%16 == 0 && time.Since(start) > Window {
			return false
		}
	}
}
