package fd

import (
	"fmt"

	"weakestfd/internal/sim"
)

// Unstable histories: the flip-aware counterpart of Stabilizing for the
// schedule-space explorer. A Stabilizing history's pre-stabilization output
// is an arbitrary function of (p, t) — fine for seeded experiments, but its
// output may change at every step, which no finite flip schedule can
// describe. An Unstable history instead runs through finitely many constant
// phases, uniform across processes, before settling on its stable output:
// exactly the bounded-output-switch prefixes the paper's lower-bound
// adversaries drive, and the shape the explorer's SwitchBudget enumerates.
// Because every output change happens at a known global time, Unstable
// implements sim.FlipOracle and the query seam can record each switch as a
// write of the history's virtual object — which is what keeps DPOR's
// independence relation sound when detector queries commute with other
// steps.

// Phase is one constant-output phase of an Unstable history: the history
// outputs Out at every process while t < Until.
type Phase[T any] struct {
	// Until is the phase's exclusive end time; the history flips to the next
	// phase (or the stable output) at t = Until.
	Until sim.Time
	// Out is the phase's output, the same at every process.
	Out T
}

// Unstable is a history with a bounded unstable prefix: Phases (with
// strictly increasing Until) followed by the permanent Stable output. An
// empty phase list makes it stable from time 0, i.e. Constant(Stable). Build
// one with NewUnstable and change it only through Reset.
type Unstable[T any] struct {
	// Phases are the pre-stabilization phases, ordered by strictly
	// increasing Until.
	Phases []Phase[T]
	// Stable is the permanent output from the last phase boundary on.
	Stable T
	// flips are the phase boundaries, kept for FlipTimes.
	flips []sim.Time
}

// NewUnstable builds an Unstable history, validating the phase order.
func NewUnstable[T any](stable T, phases ...Phase[T]) *Unstable[T] {
	u := &Unstable[T]{}
	u.Reset(stable, phases...)
	return u
}

// Reset makes u the history NewUnstable(stable, phases...) builds, copying
// the phases into u's own storage: the explorer re-arms one history per
// recycled world for every run.
func (u *Unstable[T]) Reset(stable T, phases ...Phase[T]) {
	var last sim.Time
	for i, ph := range phases {
		if ph.Until <= last {
			panic(fmt.Sprintf("fd: Unstable phase %d ends at %d, not after %d", i, ph.Until, last))
		}
		last = ph.Until
	}
	u.Phases = append(u.Phases[:0], phases...)
	u.Stable = stable
	u.flips = u.flips[:0]
	for _, ph := range phases {
		u.flips = append(u.flips, ph.Until)
	}
}

// Value implements sim.Oracle.
func (u *Unstable[T]) Value(_ sim.PID, t sim.Time) any {
	for _, ph := range u.Phases {
		if t < ph.Until {
			return ph.Out
		}
	}
	return u.Stable
}

// FlipTimes implements sim.FlipOracle: the phase boundaries, in increasing
// order, nil when there are none. The slice is u's own, valid until the
// next Reset; callers must not modify it.
func (u *Unstable[T]) FlipTimes() []sim.Time {
	if len(u.flips) == 0 {
		return nil
	}
	return u.flips
}

var _ sim.FlipOracle = (*Unstable[sim.Set])(nil)
