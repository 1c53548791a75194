package explore

import (
	"fmt"

	"weakestfd/internal/check"
	"weakestfd/internal/core"
	"weakestfd/internal/sim"
)

// Run is one completed simulation, in the shape properties are checked
// against. The explorer produces one per explored schedule; replay produces
// one per artifact re-execution.
type Run struct {
	// System is the registry name of the system under test.
	System string
	// Pattern is the failure pattern of the run.
	Pattern sim.Pattern
	// Oracle identifies the failure detector history driving the run.
	Oracle OracleChoice
	// Proposals are the input values (nil for extraction systems).
	Proposals []sim.Value
	// K is the agreement bound the system guarantees (0 when not applicable).
	K int
	// Report is the simulation outcome.
	Report *sim.Report
	// Err is the run error; for terminating protocols a non-nil Err is the
	// observable face of non-termination within the budget.
	Err error
	// Schedule is the granted PID sequence of the run, for artifacts.
	Schedule []sim.PID

	// Outputs holds the final emulated detector outputs of extraction
	// systems (nil otherwise); OutputsSettled reports that the outputs of
	// the correct processes agreed and had been constant long enough
	// (relative to the run length) to treat the run's horizon as "eventually".
	Outputs        []sim.Set
	OutputsSettled bool
	// StableOutput is the settled common output (valid iff OutputsSettled).
	StableOutput sim.Set

	// seam is the query seam the run recorded its detector accesses through
	// (nil for unrecorded runs and systems without histories). The source
	// engine's flip-anchored race analysis reads the registered histories'
	// flip schedules from it.
	seam *sim.QuerySeam
}

// Property is one checkable claim about a completed run — properties as
// data, so a system declares what must hold and the explorer quantifies it
// over the schedule space. Check returns nil when the run satisfies the
// property and a descriptive error when it violates it. A property must be
// decidable on a single bounded run: eventual properties are checked
// against the run's horizon and must return nil (not an error) when the run
// is inconclusive.
type Property interface {
	Name() string
	Check(r *Run) error
}

// Validity: every decided value was proposed.
type Validity struct{}

// Name implements Property.
func (Validity) Name() string { return "validity" }

// Check implements Property.
func (Validity) Check(r *Run) error {
	if r.Report == nil {
		return nil
	}
	return check.Validity(r.Report, r.Proposals)
}

// TerminationOfCorrect: every correct process decided within the budget.
// It presumes the fair round-robin tail the explorer closes runs with past
// Config.MaxDepth: with that tail, a budget exhaustion under an adequate
// budget is a genuine liveness failure, not a starved run. A horizon at the
// budget leaves no tail, so fleet.Spec.Config refuses it for systems that
// check this property.
type TerminationOfCorrect struct{}

// Name implements Property.
func (TerminationOfCorrect) Name() string { return "termination-of-correct" }

// Check implements Property.
func (TerminationOfCorrect) Check(r *Run) error {
	if r.Report == nil {
		return nil
	}
	return check.TerminationOfCorrect(r.Report, r.Pattern)
}

// AtMostK: at most K distinct values were decided — the Agreement property
// of k-set agreement.
type AtMostK struct{}

// Name implements Property.
func (AtMostK) Name() string { return "agreement" }

// Check implements Property.
func (AtMostK) Check(r *Run) error {
	if r.Report == nil || r.K <= 0 {
		return nil
	}
	return check.AtMostK(r.Report, r.K)
}

// UpsilonSanity: the extraction's settled output is a legal Υ^f value for
// the run's failure pattern — in particular it is not the correct set.
// Inconclusive runs (outputs still moving at the horizon) pass vacuously;
// the explorer reports how many runs settled so a sweep that never settles
// is visible.
type UpsilonSanity struct {
	// Spec is the Υ^f specification the output must satisfy.
	Spec core.UpsilonSpec
}

// Name implements Property.
func (UpsilonSanity) Name() string { return "upsilon-sanity" }

// Check implements Property.
func (u UpsilonSanity) Check(r *Run) error {
	if !r.OutputsSettled {
		return nil
	}
	if err := u.Spec.LegalStable(r.Pattern, r.StableOutput); err != nil {
		return fmt.Errorf("settled output %v illegal: %v", r.StableOutput, err)
	}
	return nil
}
