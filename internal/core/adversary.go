package core

import (
	"fmt"

	"weakestfd/internal/fd"
	"weakestfd/internal/memory"
	"weakestfd/internal/sim"
)

// This file implements the adversary constructions behind Theorem 1 (Υ is
// strictly weaker than Ωn, n ≥ 2) and Theorem 5 (Υ^f strictly weaker than
// Ω^f, 2 ≤ f ≤ n). The proofs build, against any algorithm A that claims to
// extract Ω^f from Υ^f, a failure-free run — in which Υ^f permanently
// outputs U = {p1,…,pn} — where A's extracted output can never stabilize:
// whenever A stabilizes on a set L at the currently-running processes, the
// adversary lets every process take one step and then runs only Π−L, a
// prefix indistinguishable from runs where all of L is faulty, in which a
// correct extraction must eventually output some L' ≠ L (Ω^f's set must
// intersect the correct processes).
//
// An impossibility cannot be executed universally, but the adversary is
// fully constructive against a concrete candidate: RunAdversary drives it
// against an Extractor and reports either (a) the forced output switches —
// unbounded in the phase budget — or (b) a "stuck" candidate together with a
// completed run (replayed deterministically with the stuck set crashed)
// witnessing that the candidate's stable output violates the Ω^f
// specification. Either outcome falsifies the candidate, which is exactly
// the theorem's content.

// Extractor is a candidate algorithm that uses an Υ^f history (set-valued
// oracle) and continuously publishes, per process, its current guess of an
// Ω^f output (a set of f processes) in a register array.
type Extractor struct {
	// Name identifies the candidate in reports.
	Name string
	// Build returns the n process machines and the candidate-output array
	// the adversary watches. The machines never return.
	Build func(n, f int, upsilon sim.Oracle) (machines []sim.StepMachine, out *memory.Array[sim.Set])
}

// AdversaryConfig parameterizes one adversary execution.
type AdversaryConfig struct {
	// N is the system size, F the resilience (2 ≤ F ≤ N−1; Theorem 1 is
	// F = N−1).
	N, F int
	// Extractor is the candidate under attack.
	Extractor Extractor
	// TargetSwitches stops the adversary once this many forced output
	// transitions have been observed (the run could continue forever).
	TargetSwitches int
	// PhaseBudget is the number of steps the adversary waits for the
	// candidate to move before declaring it stuck (and building the
	// violation witness). 0 means 4096·N.
	PhaseBudget int64
	// Budget caps the total run length. 0 means sim.DefaultBudget.
	Budget int64
}

// Violation witnesses a stuck candidate: a completed run (the observed
// prefix with the stuck set crashed immediately after its last step) in
// which the candidate's stable output contains no correct process.
type Violation struct {
	// Pattern is the completion's failure pattern: faulty = StableL.
	Pattern sim.Pattern
	// StableL is the candidate's stuck output.
	StableL sim.Set
	// Err is the Ω^f-legality error of StableL under Pattern.
	Err error
	// Confirmed reports that the deterministic replay reproduced StableL at
	// every correct process of Pattern.
	Confirmed bool
}

// AdversaryResult reports one adversary execution.
type AdversaryResult struct {
	// Switches is the number of forced candidate transitions observed.
	Switches int
	// History is the sequence of candidate sets the adversary extracted.
	History []sim.Set
	// Stuck reports that the candidate stopped moving within PhaseBudget.
	Stuck bool
	// Violation is non-nil iff Stuck: the completed-run witness.
	Violation *Violation
	// Steps is the length of the driven run.
	Steps int64
	// U is the constant Υ^f output used throughout (the proofs' {p1..pn}).
	U sim.Set
}

// Falsified reports whether the adversary falsified the candidate — by
// forcing at least target switches or by exhibiting a spec violation.
func (r *AdversaryResult) Falsified(target int) bool {
	return r.Switches >= target || (r.Stuck && r.Violation != nil && r.Violation.Err != nil && r.Violation.Confirmed)
}

// RunAdversary executes the Theorem 1/5 adversary against a candidate
// extractor.
func RunAdversary(cfg AdversaryConfig) *AdversaryResult {
	n, f := cfg.N, cfg.F
	if n < 3 || f < 2 || f > n-1 {
		panic(fmt.Sprintf("core: adversary needs n ≥ 3 and 2 ≤ f ≤ n−1, got n=%d f=%d", n, f))
	}
	phaseBudget := cfg.PhaseBudget
	if phaseBudget == 0 {
		phaseBudget = 4096 * int64(n)
	}
	budget := cfg.Budget
	if budget == 0 {
		budget = sim.DefaultBudget
	}

	// The proofs' constant history: Υ^f permanently outputs U = {p1,…,pn},
	// legal in every failure-free run (U ≠ Π = correct) and in every
	// completion crashing a set other than {p_{n+1}}.
	u := sim.FullSet(n).Remove(sim.PID(n - 1))
	upsilon := fd.Constant(u)

	machines, out := cfg.Extractor.Build(n, f, upsilon)
	pattern := sim.FailFree(n)
	res := &AdversaryResult{U: u}

	// Adversary state, updated by the stop predicate (which runs while all
	// processes are quiescent) and read by the schedule.
	victims := sim.FullSet(n)
	var eachOnce sim.Set
	var lastL sim.Set // empty = no candidate yet
	var sinceSwitch int64
	var grants []sim.PID
	lastStep := make([]sim.Time, n)
	rr := sim.PID(-1)

	schedule := sim.Func(func(t sim.Time, enabled sim.Set) sim.PID {
		var p sim.PID
		if togo := eachOnce.Intersect(enabled); !togo.IsEmpty() {
			p = togo.Min()
			eachOnce = eachOnce.Remove(p)
		} else {
			// Round-robin within the victim set.
			pool := victims.Intersect(enabled)
			if pool.IsEmpty() {
				pool = enabled
			}
			p = pool.Min()
			for i := 1; i <= sim.MaxProcs; i++ {
				q := sim.PID((int(rr) + i) % sim.MaxProcs)
				if pool.Has(q) {
					p = q
					break
				}
			}
			rr = p
		}
		grants = append(grants, p)
		lastStep[p] = t
		return p
	})

	stuck := false
	stop := func(_ sim.Time) bool {
		sinceSwitch++
		for _, j := range victims.Members() {
			l := out.At(j).Inspect()
			if l.IsEmpty() || l == lastL {
				continue
			}
			// The candidate moved: record the transition, let everyone
			// take one step, then run only Π−L.
			if !lastL.IsEmpty() {
				res.Switches++
			}
			res.History = append(res.History, l)
			lastL = l
			sinceSwitch = 0
			eachOnce = sim.FullSet(n)
			victims = l.Complement(n)
			break
		}
		if res.Switches >= cfg.TargetSwitches {
			return true
		}
		if sinceSwitch > phaseBudget && !lastL.IsEmpty() {
			stuck = true
			return true
		}
		return false
	}

	rep, err := sim.RunMachines(sim.Config{
		Pattern:  pattern,
		Schedule: schedule,
		Budget:   budget,
		StopWhen: stop,
	}, machines)
	if err != nil && !rep.Stopped && !rep.BudgetExhausted {
		panic(fmt.Sprintf("core: adversary run failed unexpectedly: %v", err))
	}
	res.Steps = rep.Steps
	if !stuck {
		return res
	}

	// The candidate is stuck on lastL while only Π−lastL runs: complete the
	// run by crashing lastL right after its members' last steps and replay
	// the very same grant sequence — determinism makes the two runs
	// indistinguishable to the survivors.
	res.Stuck = true
	var crashAt sim.Time
	for _, q := range lastL.Members() {
		if lastStep[q] >= crashAt {
			crashAt = lastStep[q] + 1
		}
	}
	if crashAt == 0 {
		crashAt = 1
	}
	crashes := make(map[sim.PID]sim.Time, lastL.Len())
	for _, q := range lastL.Members() {
		crashes[q] = crashAt
	}
	completion := sim.CrashPattern(n, crashes)

	machines2, out2 := cfg.Extractor.Build(n, f, upsilon)
	idx := 0
	replay := sim.Func(func(_ sim.Time, enabled sim.Set) sim.PID {
		p := grants[idx]
		idx++
		if !enabled.Has(p) {
			panic(fmt.Sprintf("core: replay diverged: %v not enabled", p))
		}
		return p
	})
	rep2, err2 := sim.RunMachines(sim.Config{
		Pattern:  completion,
		Schedule: replay,
		Budget:   int64(len(grants)),
	}, machines2)
	_ = err2 // replay runs exactly the prefix; exhaustion is expected
	confirmed := rep2.Steps == int64(len(grants))
	for _, j := range completion.Correct().Members() {
		if out2.At(j).Inspect() != lastL {
			confirmed = false
		}
	}
	res.Violation = &Violation{
		Pattern:   completion,
		StableL:   lastL,
		Err:       fd.OmegaFLegal(completion, f)(any(lastL)),
		Confirmed: confirmed,
	}
	return res
}
