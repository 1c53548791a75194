package core

import (
	"fmt"

	"weakestfd/internal/converge"
	"weakestfd/internal/memory"
	"weakestfd/internal/sim"
)

// HeartbeatUpsilon *implements* Υ from timing assumptions, closing the loop
// the paper's introduction draws: "timing assumptions circumvent
// asynchronous impossibilities by providing processes with information
// about failures, typically through time-out (or heart-beat) mechanisms"
// (Section 1). Υ itself is non-trivial — unimplementable in a fully
// asynchronous system — but under partial synchrony (an eventually
// synchronous schedule) the classic heartbeat/adaptive-timeout construction
// yields it:
//
//   - every process increments a shared heartbeat register and collects the
//     others';
//   - a process whose heartbeat has not moved for threshold[j] of the
//     observer's own steps is suspected; seeing it move again retracts the
//     suspicion and doubles threshold[j] (the standard eventually-perfect
//     adaptation, which false-suspects only finitely often once the
//     schedule's bound holds);
//   - the emulated Υ output is the suspected set when non-empty — which
//     eventually equals faulty(F), a set disjoint from and hence different
//     from correct(F) — and the fixed singleton {p1} otherwise — correct,
//     because an eventually-empty suspicion set means every process is
//     correct, and {p1} ⊊ Π = correct(F).
//
// Under a schedule that starves a correct process forever (legal in pure
// asynchrony) the suspected set converges to a wrong value — the emulated
// output equals the correct set and violates Υ. That is not a bug: it is
// the impossibility of implementing any non-trivial detector without
// timing assumptions, and the tests assert both sides.
type HeartbeatUpsilon struct {
	n   int
	hb  *memory.Array[int64]
	out *memory.Array[sim.Set]
	// initialThreshold is the starting per-target patience, in observer
	// steps per collect round.
	initialThreshold int64
}

// NewHeartbeatUpsilon builds the shared state of one timing-based Υ
// implementation over n processes.
func NewHeartbeatUpsilon(n int, initialThreshold int64) *HeartbeatUpsilon {
	if n < 2 {
		panic(fmt.Sprintf("core: HeartbeatUpsilon needs n ≥ 2, got %d", n))
	}
	if initialThreshold < 1 {
		panic(fmt.Sprintf("core: initial threshold %d", initialThreshold))
	}
	return &HeartbeatUpsilon{
		n:                n,
		hb:               memory.NewArray[int64](keyHeartbeats, n),
		out:              memory.NewArray[sim.Set](keyUpsilonImpl, n),
		initialThreshold: initialThreshold,
	}
}

// keyHeartbeats names the heartbeat array HB every timing-based module
// shares; keyUpsilonImpl the implemented Υ's output array.
var (
	keyHeartbeats  = sim.KeyOf("HB")
	keyUpsilonImpl = sim.KeyOf("Υ-impl")
)

// OutputAt returns process i's current emulated output; for inspection
// between steps only.
func (h *HeartbeatUpsilon) OutputAt(i sim.PID) sim.Set { return h.out.At(i).Inspect() }

// Emulated exposes the implementation as a queryable oracle: the module
// output of process p is p's own output variable (process-local state),
// with the {p1} default before the task's first write.
func (h *HeartbeatUpsilon) Emulated() sim.Oracle {
	return emulatedSetOracle{read: h.OutputAt, fallback: sim.SetOf(0)}
}

type emulatedSetOracle struct {
	read     func(sim.PID) sim.Set
	fallback sim.Set
}

func (e emulatedSetOracle) Value(p sim.PID, _ sim.Time) any {
	u := e.read(p)
	if u.IsEmpty() {
		return e.fallback
	}
	return u
}

// TimedComposed solves (n−1)-set agreement with *no oracle at all*: Υ is
// implemented from heartbeats (valid under an eventually synchronous
// schedule) and consumed by the Figure 1 protocol, each as a parallel task
// of the same processes. Timing assumptions → Υ → set agreement, the full
// arc of the paper's introduction.
type TimedComposed struct {
	impl     *HeartbeatUpsilon
	protocol *Fig1
}

// NewTimedComposed builds the shared state over n processes.
func NewTimedComposed(n int, initialThreshold int64, impl converge.Impl) *TimedComposed {
	hb := NewHeartbeatUpsilon(n, initialThreshold)
	return &TimedComposed{
		impl:     hb,
		protocol: NewFig1(n, hb.Emulated(), impl),
	}
}

// K returns the agreement bound, n−1.
func (c *TimedComposed) K() int { return c.protocol.K() }
