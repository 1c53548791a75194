// Package fd provides the failure detector framework of the paper's model
// (Section 3.2) — oracles as functions from (process, time) to an output
// range — together with the classical detectors the paper compares against.
//
// A detector specification maps each failure pattern to a set of allowed
// histories. This package realizes specifications as concrete histories: an
// arbitrary (seeded, deterministic) output before a stabilization time, and
// a spec-compliant stable output afterwards — which is exactly the
// behaviour space the specifications allow — and provides checkers that
// verify compliance of any oracle over a finite horizon.
//
// How the code's names map to the paper's definitions:
//
//   - NewOmega builds Ω (Chandra–Hadzilacos–Toueg): eventually every
//     correct process permanently trusts the same correct leader. The
//     weakest detector for consensus, and the f = 1 case Ω¹ of Section 5.3.
//
//   - NewOmegaF builds the f-resilient family Ω^f (Neiger): eventually a
//     fixed set of f processes, at least one of them correct, is output
//     everywhere. Ωn = Ω^n is the baseline the paper proves strictly
//     stronger than Υ (Theorem 1, Corollary 3).
//
//   - NewStableEvPerfect is the stable eventually-perfect detector:
//     eventually outputs exactly faulty(F). "Stable" is the paper's
//     Section 5.4 requirement that the output stops changing — the class
//     Figure 3 extracts Υ^f from.
//
//   - NewAntiOmega is anti-Ω (Zielinski): outputs one process that is
//     eventually never a correct leader; the historical route to the
//     weakest detector for set agreement and a relative of Υ's complement
//     form.
//
//   - Constant is the dummy (trivial) detector D_⊥ used to define
//     f-non-triviality: a detector weaker than it gives no failure
//     information at all.
//
//   - CheckStable verifies a history stabilizes and that its stable value
//     satisfies a legality predicate (e.g. OmegaLegal, or core.Upsilon(n).
//     Legal) — the executable form of "H ∈ D(F)".
//
//   - Unstable (history.go) is the flip-aware history type: finitely many
//     constant pre-stabilization phases, uniform across processes, before
//     the permanent stable output. Because every output change happens at a
//     known global time, it implements sim.FlipOracle and the simulator's
//     query seam (sim.QuerySeam) can record each switch as a write of the
//     history's virtual object — what lets the schedule-space explorer
//     enumerate *when* a history stabilizes (its SwitchBudget dimension)
//     while keeping DPOR's independence relation sound.
//
// Queries themselves are first-class accesses: QueryAt routes through the
// run's query seam, which records each query as a read of the queried
// history's object.
//
// Tagged histories (tagged.go) stamp outputs with the emitting module so
// reductions can count module switches, which the Theorem 1/5 adversary
// exploits.
package fd
