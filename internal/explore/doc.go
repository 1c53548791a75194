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
// through sim.RunMachines' loop (the multi-task compositions as
// sim.TaskMachines) on shared state indistinguishable from fresh (runs are
// deterministic in the schedule, so replay *is* cloning), and checks
// declarative Property values against every completed run. Every run of a
// configuration starts from the same initial configuration, so the
// explorer restores it rather than rebuilding it: Instantiate re-arms a
// world an earlier run released (world.go), each search records its runs
// into one run store (the Run, a sim.Runner's Report and the query seam),
// and each slot of the search stack reuses its own buffers — an explored
// run allocates almost nothing (alloc_test.go bounds each layer).
//
// # The engine
//
// The engine enumerates the schedule space over one dependence relation,
// built on the access-recording seam of internal/memory: every Direct*
// accessor reports its (object, read|write) events to the run's
// sim.AccessLog, so each step carries its exact shared-object footprint. Two
// steps of different processes are independent when their access sets do
// not conflict (no common object with at least one write); schedules that
// differ only by reordering independent adjacent steps are equivalent, and
// a partial-order engine executes at least one representative per
// equivalence class (Mazurkiewicz trace). Every run closes with a fair
// round-robin tail inside the step budget.
//
// The engine is source-DPOR with wakeup sequences in the
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
//   - Sleep sets carry fully-explored siblings down the tree: a sibling
//     stays asleep along independent steps and is woken by the first
//     conflicting one. Sleep-set skips count as Result.Pruned.
//   - The race analysis of a run stops at happens-before saturation: once
//     every process that steps again has a vector clock dominating the
//     per-process step counts of the branch nodes (the steps within
//     MaxDepth), no later step can race with a branch node, and races
//     whose earlier step lies past the branch nodes insert nothing anyway.
//     The cutoff loses no race and adds none; it only skips the walk of
//     the rest of the run.
//   - State-hash joins: when MaxDepth < Budget, every step of every run
//     beyond the horizon is pure round-robin, so two runs that reach the
//     horizon in the same joint state run identical tails. Each run's state
//     at the horizon is fingerprinted incrementally (sim.AccessLog's fold
//     of every object's current-value fingerprint and every process's
//     observation hash — see StateDigest) and keyed together with the
//     round-robin rotation point and a fingerprint of any forced-prefix
//     grants still pending past the horizon. The digest covers the
//     detector environment too: each flip writes its history object with
//     the post-flip output's fingerprint (sim.QuerySeam.OnStep). The probe
//     at the horizon is the digest's only reader, so the log stops
//     maintaining it there (sim.AccessLog.StopDigest) until the next run's
//     Reset. A later run hitting a seen key stops at the horizon, counted
//     in Result.Joined, and its race analysis reads the recorded tail step
//     by step as far as it walks.
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
//     (pinned by TestSourceVsClassicDifferential). The cache is capped
//     (Config.MaxStates); hitting the cap only disables new insertions and
//     is reported as Result.StateCapped.
//
// Config.MaxDepth bounds where backtrack points may be inserted, giving
// bounded-depth DPOR. The intended claim is exhaustiveness up to
// commutativity over *every* schedule — arbitrarily many context switches —
// whose branching lies in the first MaxDepth steps, with every run ending
// under the fair tail beyond. That tail is what makes a budget exhaustion a
// liveness failure rather than a starved run, so fleet.Spec.Config (behind
// `fdlab explore` and `fdlab fleet`) refuses full depth (MaxDepth = budget)
// for systems that check termination-of-correct. The non-terminating
// extraction and the compositions need a finite horizon anyway, to stay
// tractable.
//
// # Soundness, and where it falls short
//
// Reduction soundness relies on two properties of the explored
// configurations. First, a machine's step behaviour must not depend on the
// global time of the step in any way the access sets do not capture, since
// commuting two adjacent steps shifts both their times by one. Detector
// queries — the one time-dependent operation of the machines — are
// first-class accesses: every query routes through the run's query seam
// (sim.QuerySeam, registered by execute for every instance history) and is
// recorded as a read of a virtual per-history object, every
// pre-stabilization output switch ("flip") of an unstable history is
// recorded as a write of that object at its global time, and the step one
// before a flip carries a boundary-guard read, so no commutation the
// reduction performs can move a query across a flip. With stable-from-0
// histories the object is never written. Second, the checked properties
// must be trace-invariant — equal on every member of an equivalence class —
// so that checking the one executed representative decides the class.
// Properties over decisions (agreement, validity, termination-of-correct)
// are functions of the final state and qualify. The extraction's
// upsilon-sanity is the known exception at its margin: whether outputs count
// as "settled" compares the global time of the last output change against a
// stability window, and that time is not invariant under commutation, so a
// class straddling the window boundary may be checked on an unsettled
// (vacuously passing) representative. The sweep surfaces Result.SettledRuns
// so a settledness collapse is visible, and TestSwitchBudgetOneSuiteCounts
// pins the extraction's settled runs exactly.
//
// Crash times are fixed by the pattern, but that does not make them
// time-independent in the sense above, and the claim has two known gaps.
// The ground-truth oracle (oracle_test.go) measures both: on small instances
// it runs every enabled-PID prefix of MaxDepth steps under the fair tail,
// and testdata/oracle-gaps.txt lists every outcome pure source-DPOR misses.
//
//   - Crash-time disabling. A process that crashes at time t > 0 takes its
//     last pre-crash step only if it is scheduled before t. Scheduling
//     another process first can push that step past t, so it never runs —
//     and no race in any explored run points at a step that never ran, so
//     the search never looks for it. On fig1 at n = 3 with p1 crashing at
//     time 3, the prefix p1 p1 p2 p2 p2 p2 p2 makes p2 and p3 decide p1's
//     proposal; no source-DPOR run reaches that outcome, not even at
//     MaxDepth 24.
//   - The horizon boundary. A source-DPOR run restarts the fair tail where
//     its forced prefix ends, which may be before MaxDepth, so a schedule
//     that branches at every one of the first MaxDepth steps and then runs
//     the fair tail is not always among its runs. Its outcomes are reached
//     at a deeper horizon.
//
// The oracle also requires both source-DPOR variants to report every
// violation the brute force finds (or a listed miss to explain it), and
// no configuration to take more runs than the brute force has leaves.
// TestSourceVsClassicDifferential and TestSwitchBudgetOneSuiteCounts pin
// the exact run counts of the standard suite and the flip grids, with and
// without joins.
//
// # What is enumerated
//
// Failure patterns. Every crash set of size ≤ f (the environment E_f the
// system was sized with, NewSystem's f) is combined with every assignment
// of crash times from a small grid (Config.CrashTimes). Config.Symmetry
// collapses crash sets up to process renaming — a speed heuristic only,
// which the mutant zoo uses: proposals are pinned to PIDs and the protocols
// branch on value order, so renamed patterns are not execution-equivalent.
// The standard suite and the command line keep it off.
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
// the pattern name and narrative (schema 3, the only schema ReadArtifact
// accepts). `fdlab replay` re-executes it
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
// the failure pattern the kill must classify to; TestMutantZoo sweeps all
// of them. The committed corpus under
// testdata/corpus/ holds one shrunk schema-3 artifact per zoo entry, and
// TestCorpus replays each against the current code, asserting that the
// violation, its message and its classification reproduce — a regression
// net over the simulator, the protocols, the shrinker and the classifier
// at once; TestCorpusMatchesKills requires every kill on one lab worker
// to reproduce its artifact byte for byte. Two
// zoo lineages calibrate specific explorer dimensions: fig1-skip-on-change
// (core.MutSkipOnChange) is provably correct under every stable-from-0
// history — its broken branch is dead code there — yet agreement-violating
// under a single pre-stabilization output switch, so only a SwitchBudget
// >= 1 sweep catches it; fig1-garbled-echo (core.MutGarbledEcho) is dead
// code under stable output Π, so only the oracle enumeration's
// proper-subset stable sets reach its poisoned citizen echo.
package explore
