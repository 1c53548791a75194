// Package explore is a bounded-exhaustive schedule-space explorer for the
// protocols of this reproduction: a stateless model checker in the VeriSoft
// tradition, specialized to the step-machine simulation engine.
//
// The paper's claims are universally quantified — Figure 1 solves n-set
// agreement in *every* admissible run, the Figure 3 extraction emits a legal
// Υ^f history under *every* schedule and failure pattern in E_f — but the
// experiment lab only samples a few hundred seeded-random schedules. The
// explorer closes that gap for small configurations (n ≤ 4): it enumerates a
// precisely-defined family of schedules × crash patterns, replays each one
// through sim.RunMachines (or sim.RunTaskMachines for the multi-task
// compositions) on fresh shared state (runs are deterministic in the
// schedule, so replay *is* cloning), and checks declarative Property values
// against every completed run.
//
// # Engines
//
// Three engines enumerate the schedule space; all close every run with a
// fair round-robin tail inside the step budget, and all share the same
// dependence relation, built on the access-recording seam of
// internal/memory: every Direct* accessor reports its (object, read|write)
// events to the run's sim.AccessLog, so each step carries its exact
// shared-object footprint. Two steps of different processes are independent
// when their access sets do not conflict (no common object with at least
// one write); schedules that differ only by reordering independent adjacent
// steps are equivalent, and a partial-order engine executes at least one
// representative per equivalence class (Mazurkiewicz trace).
//
// EngineSource (default) is source-DPOR with wakeup sequences in the
// Abdulla–Aronis–Jonsson–Sagonas style (POPL 2014), plus a state-hash join
// layer at the branching horizon:
//
//   - Happens-before is tracked with per-process and per-object vector
//     clocks over the recorded access sets (snapshot objects are tracked
//     per *position*: updates by different processes commute, scans
//     conflict with every update).
//   - A race — conflicting accesses (b, c) of different processes ordered
//     only by their own pair — yields a *wakeup sequence* v·p: the steps in
//     (b, c) not happening-after b, then proc(c). Where classic DPOR falls
//     back to "add every enabled process" when the reversing process was
//     not enabled at b, source-DPOR computes the initials of v·p — the
//     processes with no dependent predecessor inside the sequence — and
//     inserts nothing when some initial is already covered at b (that
//     branch subsumes the reversal) or asleep there (the reversal was
//     already explored). In this simulation the fallback is provably dead
//     anyway: crashes happen at absolute times and enabledness never
//     recovers, so any process that stepped inside (b, c) was enabled at b.
//   - Flip anchoring: with a non-empty flip schedule (SwitchBudget > 0
//     histories), a detector flip is pinned to an *absolute* global time
//     while the forced reversal left-shifts every window step, so the
//     wakeup-sequence construction applies one extra dependency rule
//     (wakeup.go): a step whose history query would cross a flip on the way
//     to its shifted slot — lo < flip time <= hi — cannot join the sequence,
//     and neither can any later window step depending on it (same process or
//     conflicting accesses; flip drops need that explicit transitive closure
//     because a flip-pinned step does not happen-after b). Every kept step
//     then replays its recorded behavior at its forced position. Only when
//     the racing step c itself fails the rule does the engine degrade to a
//     bare single-initial insertion — classic DPOR's per-race insertion,
//     still gated by the covered/sleep checks. Flip-free configurations skip
//     anchoring entirely: the stable-from-0 search is unchanged run for run.
//   - Sleep sets carry fully-explored siblings down the tree exactly as in
//     the classic engine; sleep-set skips count as Result.Pruned.
//   - State-hash joins: when MaxDepth < Budget, every step of every run
//     beyond the horizon is pure round-robin, so two runs that reach the
//     horizon in the same joint state run identical tails. Each run's state
//     at the horizon is fingerprinted incrementally (sim.AccessLog's
//     order-insensitive XOR of per-write value fingerprints — see
//     StateDigest) and keyed together with the round-robin rotation point
//     and a fingerprint of any forced-prefix grants still pending past the
//     horizon. The digest covers the detector environment too: each flip
//     writes its history object with the post-flip output's fingerprint
//     (sim.QuerySeam.OnStep). A later run hitting a seen key stops at the
//     horizon and splices the recorded tail, counted in Result.Joined.
//     Soundness: crashes and flips fire at *absolute* times — the flips
//     still pending at the horizon are the same for every run of a
//     configuration — and machines consult time only through the query
//     seam, whose environment-side accesses are sealed out of the
//     per-process observation hashes (they are charged to whichever step
//     runs at the flip time, not observed by it) — so equal key at equal
//     time t means the two runs' futures are *identical* step for step, not
//     merely equivalent, and the first visitor's property verdict covers
//     the joined run. A sound key never changes the search, only who executes
//     each tail: the hash variant visits exactly the pure-source schedules
//     (pinned by the differential suite). The cache is capped
//     (Config.MaxStates); hitting the cap only disables new insertions and
//     is reported as Result.StateCapped.
//
// EngineDPOR is classic dynamic partial-order reduction in the
// Flanagan–Godefroid style (POPL 2005): per-race backtrack points with the
// conservative add-all-enabled fallback, plus the same sleep sets. It is
// kept as the differential anchor for the source engine — same dependence
// relation, independently implemented search.
//
// For both partial-order engines, Config.MaxDepth bounds where backtrack
// points may be inserted: the search is exhaustive up to commutativity over
// *every* schedule — arbitrarily many context switches — whose branching
// lies in the first MaxDepth steps. Terminating protocols at small n afford
// full depth (MaxDepth = budget); the non-terminating extraction and the
// compositions use a finite horizon. Reduction soundness needs step
// behaviour to be independent of a step's global time *up to what the
// access sets record*. Crash times are fixed by the pattern, and detector
// queries — the one time-dependent operation — are first-class accesses
// since PR 5: every query routes through the run's query seam
// (sim.QuerySeam) and is recorded as a read of a virtual per-history
// object, every pre-stabilization output switch ("flip") of an unstable
// history is recorded as a write of that object at its global time, and the
// step one before a flip carries a boundary-guard read, so no commutation
// the reduction performs can move a query across a flip. With stable-from-0
// histories the object is never written and the search is the PR-4 one,
// run for run.
//
// EngineEnum is the PR-3 enumerator, kept for differential testing: a
// schedule is a sequence of adversarial "blocks" (block (p, ℓ) grants up to
// ℓ consecutive steps to p) followed by the fair tail — exactly the
// context-switch-bounded exploration of Musuvathi & Qadeer's CHESS, with
// stutter pruning on cut-short blocks and canonical decomposition of solo
// spans. The differential suites (differential_test.go, source_test.go, CI)
// assert all engines find the identical violation set on the standard n ≤ 3
// suite and on killable mutants, with source executing strictly fewer runs
// than classic, and classic strictly fewer than the enumerator.
//
// # What is enumerated
//
// Failure patterns. Every crash set of size ≤ f (the environment E_f) is
// combined with every assignment of crash times from a small grid
// (Config.CrashTimes). Config.Symmetry collapses crash sets up to process
// renaming — a speed heuristic only: proposals are pinned to PIDs and the
// protocols branch on value order, so renamed patterns are not
// execution-equivalent. The standard suite keeps it off.
//
// Detector histories. For each pattern the system enumerates the legal
// stable outputs of its failure detector (every legal Υ/Υ^f stable set,
// every correct Ω leader). Config.SwitchBudget adds the unstable-prefix
// dimension the paper's lower-bound adversaries drive: for b > 0, each
// stable value is additionally explored under every schedule of at most b
// pre-stabilization output switches, with phase outputs drawn from the
// detector's *range* (including maximally unhelpful values like the correct
// set itself, legal before stabilization) and flip times from the
// Config.FlipTimes grid. Budget 0 — the default and the standard suite —
// keeps histories stable from time 0, which is exactly the PR-4 space. The
// timed composition consumes no oracle at all — its detector is implemented
// from heartbeats, and the explorer checks that safety survives every way
// the implementation can misbehave.
//
// # Counterexamples
//
// A violated property yields the flat granted-PID sequence of the failing
// run. The shrinker minimizes the schedule (prefix truncation, then
// ddmin-style chunk deletion) and then the *configuration*: crashes that
// are not load-bearing are dropped from the pattern, the oracle's stable
// set is shrunk to the smallest legal value, and the history's flip
// schedule is minimized (drop phases, then move each surviving flip later)
// — every candidate re-replayed through sim.FixedSchedule and kept only if
// the same property still fails. The shrunk witness is then *classified*:
// Classify matches the run's structural features — which property failed,
// whether a crash or a history flip is load-bearing, round gaps in the
// access trace's round-indexed objects, a decider's stale read of a
// converge register or snapshot entry another process overwrote — against
// the named failure-pattern library of classify.go, yielding a
// FailurePattern with a one-line signature and a human-readable narrative
// of how the interleaving broke the protocol. The result is emitted as a
// JSON Artifact recording the witness configuration, flips included, plus
// the pattern name and narrative (schema 3; schemas 1 and 2 from earlier
// explorer versions still load). `fdlab replay` re-executes it
// deterministically, step for step, printing the detector flip events, the
// reproduced violation and its classification and, with -trace, each
// step's recorded access set — history-object reads and flip writes
// included. Replay validates hand-edited artifacts: every recorded flip
// output must lie in the system's detector *range* (Υ^f sets of size
// ≥ n+1−f, Ω singletons), or the replay would indict the environment
// rather than the protocol.
//
// The package proves its own worth by mutation. The mutant zoo
// (mutants.go) pairs every registered broken variant of the four protocol
// systems — fig1, fig2, extract-omega, composed, at least three mutants
// each — with the cheapest exploration configuration known to kill it and
// the failure pattern the kill must classify to; TestMutantZoo and the CI
// mutant-gate job sweep all of them. The committed corpus under
// testdata/corpus/ holds one shrunk schema-3 artifact per zoo entry, and
// TestCorpus replays each against the current code, asserting both the
// violation and its classification reproduce — a regression net over the
// simulator, the protocols, the shrinker and the classifier at once. Two
// zoo lineages calibrate specific explorer dimensions: fig1-skip-on-change
// (core.MutSkipOnChange) is provably correct under every stable-from-0
// history — its broken branch is dead code there — yet agreement-violating
// under a single pre-stabilization output switch, so only a SwitchBudget
// >= 1 sweep catches it; fig1-garbled-echo (core.MutGarbledEcho) is dead
// code under stable output Π, so only the oracle enumeration's
// proper-subset stable sets reach its poisoned citizen echo.
package explore
