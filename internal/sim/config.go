package sim

import (
	"errors"
	"fmt"
)

// ErrBudgetExhausted is reported when the step budget ran out before every
// correct process returned. In this simulator it is the observable face of
// non-termination; impossibility experiments assert it, liveness experiments
// assert its absence.
var ErrBudgetExhausted = errors.New("sim: step budget exhausted before all correct processes returned")

// BudgetError is the error a run returns when its budget ran out before
// every correct process returned: it wraps ErrBudgetExhausted and records
// the run's pattern and step count. The message is rendered only when asked
// for, so runs that end on the budget, as every extraction run does, pay
// for no formatting.
type BudgetError struct {
	Pattern Pattern
	Steps   int64
}

// Error renders "<ErrBudgetExhausted> (pattern <pattern>, <steps> steps)".
func (e *BudgetError) Error() string {
	return fmt.Sprintf("%v (pattern %v, %d steps)", ErrBudgetExhausted, e.Pattern, e.Steps)
}

// Unwrap returns ErrBudgetExhausted.
func (e *BudgetError) Unwrap() error { return ErrBudgetExhausted }

// Config describes one run of an algorithm.
type Config struct {
	// Pattern is the failure pattern F of the run.
	Pattern Pattern
	// Schedule decides which enabled process takes each step.
	Schedule Schedule
	// Budget caps the total number of atomic steps (0 means DefaultBudget).
	Budget int64
	// StopWhen, if non-nil, is consulted after every step; returning true
	// ends the run early. The run is not marked budget-exhausted in that
	// case. Used by adversary experiments that stop once they have forced
	// enough behaviour.
	StopWhen func(t Time) bool
	// AccessLog, if non-nil, records the shared-object accesses of every
	// granted step: machines route every operation through the instrumented
	// Direct* accessors of internal/memory.
	AccessLog *AccessLog
	// Queries, if non-nil, is the run's detector-query seam: every failure
	// detector query (fd.QueryAt) routes through it, recording the query as a
	// read of the history's virtual object and each registered history flip
	// as a write (see QuerySeam). Nil is the pass-through default.
	Queries *QuerySeam
}

// DefaultBudget is the step budget used when Config.Budget is zero.
const DefaultBudget int64 = 1 << 20

// Report is the outcome of a run.
type Report struct {
	// Decided maps each process that decided to its decision value.
	Decided map[PID]Value
	// DecidedAt maps each deciding process to the time of the step in which
	// it decided.
	DecidedAt map[PID]Time
	// Halted is the set of processes that returned without deciding.
	Halted Set
	// Crashed is the set of processes that crashed during the run.
	Crashed Set
	// Steps is the total number of atomic steps granted.
	Steps int64
	// StepsBy counts the steps taken by each process.
	StepsBy []int64
	// Stopped reports that StopWhen ended the run.
	Stopped bool
	// BudgetExhausted reports that the budget ran out with live processes.
	BudgetExhausted bool
	// Accesses is the run's access log when Config.AccessLog was set (nil
	// otherwise): per-step shared-object access sets, aligned with the grant
	// order. It is the same log the caller passed in, surfaced here so
	// consumers that only see the Report (replay tracing, dependency
	// analysis) can reach it.
	Accesses *AccessLog
}

// DecidedValues returns the set of distinct decision values in the report,
// in ascending order.
func (r *Report) DecidedValues() []Value {
	return r.DecidedValuesAppend(nil)
}

// DecidedValuesAppend appends the distinct decision values to dst in
// ascending order and returns the extended slice. It is the non-allocating
// variant of DecidedValues for hot summary loops: dedup and ordering are
// done by insertion into the slice itself, with no map.
func (r *Report) DecidedValuesAppend(dst []Value) []Value {
	base := len(dst)
	//lint:fdlint determinism -- sorted-insertion dedup: the resulting slice is independent of iteration order
	for _, v := range r.Decided {
		lo, hi := base, len(dst)
		for lo < hi {
			mid := (lo + hi) / 2
			if dst[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(dst) && dst[lo] == v {
			continue
		}
		dst = append(dst, 0)
		copy(dst[lo+1:], dst[lo:])
		dst[lo] = v
	}
	return dst
}
