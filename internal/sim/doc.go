// Package sim implements the paper's model of computation (Section 3): a
// system of N = n+1 crash-prone processes taking atomic steps on shared
// objects and failure detector modules, driven by an explicit schedule.
//
// The runner executes all processes in a single goroutine, one atomic step
// at a time, in the order the schedule decides. Runs are therefore
// deterministic functions of (schedule, failure pattern, oracle histories).
//
// Logical time is the global step counter: step k happens at time k,
// matching the paper's non-decreasing time lists T with at most one step
// per process per instant.
//
// How the code's names map to the paper's definitions (Section 3):
//
//   - Pattern is a failure pattern F: it fixes each process's crash time,
//     so F(t) = {p : CrashAt(p) ≤ t} is the set of processes crashed by
//     time t, correct(F) the processes that never crash. Pattern.
//     InEnvironment(f) is membership in the environment E_f (at most f
//     crashes).
//   - Schedule is the asynchronous adversary: it chooses, at every step,
//     which enabled process moves. RoundRobin and NewRandom are the fair
//     schedules; Priority, Starve and EventuallySynchronous build the
//     proofs' constructed runs (solo executions, starvation
//     indistinguishable from crashes, partial synchrony after a GST), and
//     FixedSchedule replays a recorded grant sequence.
//   - Oracle is a failure detector history H: a function from (process,
//     time) to the detector's output range, sampled by a process's step
//     (the paper's "query the failure detector module").
//   - StepMachine is one process's algorithm A(p) as a resumable automaton:
//     each Step performs one atomic step against shared memory, with its
//     control state held explicitly between steps; MachineContext carries
//     its PID, the system size and the run's instrumentation.
//   - RunMachines executes a configuration ⟨A, H, F, schedule⟩ and
//     produces a Report (decisions, steps, crashes) — one run R of the
//     paper, cut off at a step budget since impossibility arguments reason
//     about infinite runs the simulator cannot finish (see machine.go).
//     A Runner runs the same loop into one Report it keeps from run to run,
//     the way the explorer records thousands of short runs. TaskMachines
//     turns a process of parallel tasks into one StepMachine with a fair
//     local scheduler, so the same loop runs it.
//
// Set is the bitset of PIDs used for detector outputs (the range 2^Π of Υ)
// and correct/faulty sets throughout.
package sim
