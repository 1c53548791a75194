// Package check verifies problem specifications on run outcomes: the three
// k-set-agreement properties on decision reports (paper Section 5.1), and
// stabilization of emulated failure detector outputs in reduction runs.
package check

import (
	"errors"
	"fmt"
	"slices"

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
	if err := TerminationOfCorrect(rep, pattern); err != nil {
		return fmt.Errorf("check: termination violated: %w", err)
	}
	if err := AtMostK(rep, k); err != nil {
		return fmt.Errorf("check: agreement violated: %w", err)
	}
	if err := Validity(rep, proposals); err != nil {
		return fmt.Errorf("check: validity violated: %w", err)
	}
	return nil
}

// TerminationOfCorrect reports the lowest correct process that did not
// decide.
func TerminationOfCorrect(rep *sim.Report, pattern sim.Pattern) error {
	for s := pattern.Correct(); s != 0; s &= s - 1 {
		p := s.Min()
		if _, ok := rep.Decided[p]; !ok {
			return fmt.Errorf("correct %v did not decide within %d steps", p, rep.Steps)
		}
	}
	return nil
}

// AtMostK reports more than k distinct decided values — the Agreement
// property of k-set agreement.
func AtMostK(rep *sim.Report, k int) error {
	var scratch [sim.MaxProcs]sim.Value
	decided := rep.DecidedValuesAppend(scratch[:0])
	if len(decided) > k {
		// Format a copy: handing Errorf the scratch slice itself would move
		// the array to the heap on every call, passing ones included.
		return fmt.Errorf("%d distinct decisions %v exceed k=%d", len(decided), slices.Clone(decided), k)
	}
	return nil
}

// Validity reports the lowest process that decided a value nobody
// proposed. Taking the minimum, not the first offender met, keeps the
// message independent of map order: explorer artifacts record it and the
// lab fingerprint hashes the facade's errors.
func Validity(rep *sim.Report, proposals []sim.Value) error {
	proposed := make(map[sim.Value]bool, len(proposals))
	for _, v := range proposals {
		proposed[v] = true
	}
	found := false
	var first sim.PID
	for p, v := range rep.Decided {
		if !proposed[v] && (!found || p < first) {
			first, found = p, true
		}
	}
	if found {
		return fmt.Errorf("%v decided unproposed value %d", first, rep.Decided[first])
	}
	return nil
}

// Consensus verifies a consensus outcome (1-set agreement).
func Consensus(rep *sim.Report, pattern sim.Pattern, proposals []sim.Value) error {
	return SetAgreement(rep, pattern, 1, proposals)
}

// ErrNoSamples is OutputTrace.StableFrom's error for a trace that never
// sampled: the run took no step.
var ErrNoSamples = errors.New("check: no samples recorded")

// OutputTrace records the evolution of per-process emulated detector
// outputs across a run by polling them. Observe, plugged into
// sim.Config.StopWhen (which the runner calls on quiescent shared state
// after every step), reads each process's current output through a
// per-process reader and compares it in place with the last one recorded,
// so observing a step allocates nothing. The reductions whose runs are
// tested this way are polled only in tests and experiments; the Figure 3
// extraction records its output changes where it writes them instead
// (core.Extraction.StableFrom), since a per-step poll of every output
// would dominate its runs.
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
	if !o.sampled {
		var zero T
		return zero, 0, ErrNoSamples
	}
	return Settled(o.last, o.lastChange, procs)
}

// Settled returns the common final output of procs and the latest of their
// last-change times, from final[p], process p's output at the end of a run,
// and changed[p], the time p's output last changed; it errors if procs is
// empty or their final outputs disagree.
func Settled[T comparable](final []T, changed []sim.Time, procs sim.Set) (T, sim.Time, error) {
	var zero T
	if procs.IsEmpty() {
		return zero, 0, fmt.Errorf("check: empty process set")
	}
	first := procs.Min()
	ref := final[first]
	var from sim.Time
	for s := procs; s != 0; s &= s - 1 {
		p := s.Min()
		if final[p] != ref {
			return zero, 0, fmt.Errorf("check: outputs disagree: %v has %v, %v has %v",
				first, ref, p, final[p])
		}
		if changed[p] > from {
			from = changed[p]
		}
	}
	return ref, from, nil
}

// Horizon returns the time of the last sample.
func (o *OutputTrace[T]) Horizon() sim.Time { return o.final }
