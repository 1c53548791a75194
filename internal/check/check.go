// Package check verifies problem specifications on run outcomes: the three
// k-set-agreement properties on decision reports (paper Section 5.1), and
// stabilization of emulated failure detector outputs in reduction runs.
package check

import (
	"fmt"

	"weakestfd/internal/sim"
)

// SetAgreement verifies a k-set-agreement outcome:
//
//	Termination: every correct process decided (the runner already enforces
//	             this by returning an error otherwise; here we re-check on
//	             the report),
//	Agreement:   at most k distinct values were decided,
//	Validity:    every decided value was proposed.
func SetAgreement(rep *sim.Report, pattern sim.Pattern, k int, proposals []sim.Value) error {
	for _, p := range pattern.Correct().Members() {
		if _, ok := rep.Decided[p]; !ok {
			return fmt.Errorf("check: termination violated: correct %v did not decide", p)
		}
	}
	decided := rep.DecidedValues()
	if len(decided) > k {
		return fmt.Errorf("check: agreement violated: %d > %d distinct decisions %v", len(decided), k, decided)
	}
	proposed := make(map[sim.Value]bool, len(proposals))
	for _, v := range proposals {
		proposed[v] = true
	}
	for p, v := range rep.Decided {
		if !proposed[v] {
			return fmt.Errorf("check: validity violated: %v decided unproposed value %d", p, v)
		}
	}
	return nil
}

// Consensus verifies a consensus outcome (1-set agreement).
func Consensus(rep *sim.Report, pattern sim.Pattern, proposals []sim.Value) error {
	return SetAgreement(rep, pattern, 1, proposals)
}

// OutputTrace records the evolution of per-process emulated detector
// outputs across a run. Observe, plugged into sim.Config.StopWhen (which the
// runner calls on quiescent shared state after every step), reads each
// process's current output through a per-process reader and compares it in
// place with the last one recorded, so observing a step allocates nothing.
type OutputTrace[T comparable] struct {
	n          int
	read       func(i sim.PID) T
	last       []T
	lastChange []sim.Time
	sampled    bool
	final      sim.Time
}

// NewOutputTrace builds a trace over n per-process outputs; read(i) returns
// process i's current output.
func NewOutputTrace[T comparable](n int, read func(i sim.PID) T) *OutputTrace[T] {
	return &OutputTrace[T]{
		n:          n,
		read:       read,
		last:       make([]T, n),
		lastChange: make([]sim.Time, n),
	}
}

// Observe samples the outputs at time t; wire it into StopWhen:
//
//	StopWhen: func(t sim.Time) bool { trace.Observe(t); return false }
func (o *OutputTrace[T]) Observe(t sim.Time) {
	for i := 0; i < o.n; i++ {
		if cur := o.read(sim.PID(i)); !o.sampled || cur != o.last[i] {
			o.lastChange[i] = t
			o.last[i] = cur
		}
	}
	o.sampled = true
	o.final = t
}

// Hook returns a StopWhen function that records the trace and never stops
// the run.
func (o *OutputTrace[T]) Hook() func(sim.Time) bool {
	return func(t sim.Time) bool {
		o.Observe(t)
		return false
	}
}

// Final returns the last sampled outputs.
func (o *OutputTrace[T]) Final() []T { return o.last }

// StableFrom returns the time after which none of the given processes'
// outputs changed, and the common final value; it errors if the outputs of
// those processes disagree at the end of the trace.
func (o *OutputTrace[T]) StableFrom(procs sim.Set) (T, sim.Time, error) {
	var zero T
	if !o.sampled {
		return zero, 0, fmt.Errorf("check: no samples recorded")
	}
	members := procs.Members()
	if len(members) == 0 {
		return zero, 0, fmt.Errorf("check: empty process set")
	}
	ref := o.last[members[0]]
	var from sim.Time
	for _, p := range members {
		if o.last[p] != ref {
			return zero, 0, fmt.Errorf("check: outputs disagree: %v has %v, %v has %v",
				members[0], ref, p, o.last[p])
		}
		if o.lastChange[p] > from {
			from = o.lastChange[p]
		}
	}
	return ref, from, nil
}

// Horizon returns the time of the last sample.
func (o *OutputTrace[T]) Horizon() sim.Time { return o.final }
