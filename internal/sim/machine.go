package sim

import "fmt"

// This file is the simulator's execution engine: it drives processes as
// resumable state machines — Aspnes-style explicit step schedules over
// process automata — in a single goroutine, with no channels and near-zero
// allocations per step.

// MachineStatus is the outcome of one StepMachine step.
type MachineStatus uint8

const (
	// MachineRunning means the machine has more steps to take.
	MachineRunning MachineStatus = iota
	// MachineDecided means the machine returned a decision during this step;
	// the value is available from Decision.
	MachineDecided
	// MachineHalted means the machine returned without deciding (a
	// non-participant).
	MachineHalted
	// MachineDecidedRunning means the machine decided during this step and
	// keeps taking steps, as a process does whose other tasks run on; the
	// value is available from Decision.
	MachineDecidedRunning
)

// MachineContext carries the per-process identity and instrumentation the
// runner assigns before the first step.
type MachineContext struct {
	// ID is the process identity (slot index in the machines slice).
	ID PID
	// N is the total number of processes in the system.
	N int
	// Log is the run's access log (nil when the run is not recorded). A
	// machine must hand it to every Direct* accessor it calls, so the
	// step's shared-object access set is observable; with a nil log the
	// accessors are no-ops and cost one branch.
	Log *AccessLog
	// Queries is the run's detector-query seam (nil when queries are not
	// recorded). A machine must route every failure detector query through
	// it (fd.QueryAt, or QuerySeam.Query directly), so the query is
	// observable as a read of the history's virtual object; a nil seam
	// evaluates oracles directly and costs one branch.
	Queries *QuerySeam
}

// StepMachine is a process automaton A(p) in resumable form: it *returns*
// between steps and stores its control state explicitly. Each Step call must
// perform at most one atomic operation (one shared-object access or failure
// detector query; none for a no-op step) and may follow it with any amount
// of process-local computation.
//
// Because the runner is single-threaded, machines access shared objects
// directly (memory.Register.DirectRead, memory.Snapshot.DirectScan, …): with
// one machine stepping at a time, every access is trivially atomic.
type StepMachine interface {
	// Init is called once per run, before the machine's first step.
	Init(ctx MachineContext)
	// Step performs the machine's next atomic step at time t.
	Step(t Time) MachineStatus
	// Decision returns the decision value; valid only after Step returned
	// MachineDecided or MachineDecidedRunning.
	Decision() Value
}

// RunMachines executes one StepMachine per process under the given
// configuration and returns the run report — one run R of the paper, cut off
// at the step budget. It returns a *BudgetError, which wraps
// ErrBudgetExhausted, if the run ended before every correct process decided
// or halted. A machine cannot return before its first step.
//
// At every time t = 1, 2, …, processes whose crash time has arrived are
// crashed, the schedule picks one of the remaining live processes, and that
// process's machine takes its step t. A process decides once, with the first
// decision its machine reports. The run ends when no process is live, or
// when every correct process has decided and some decided process is still
// running (a task set's reduction never returns); processes still live when
// the run ends are reported crashed. A panicking machine is a bug in the
// algorithm, not a property of the run; the panic propagates.
func RunMachines(cfg Config, machines []StepMachine) (*Report, error) {
	return new(Runner).Run(cfg, machines)
}

// Runner runs step machines into one Report it keeps from run to run: the
// explorer runs thousands of short runs of one configuration, and a run
// that allocates its Report, two maps and a step-count slice would spend
// more on them than on its steps. The zero Runner is ready.
type Runner struct {
	rep Report
	err BudgetError
}

// Run is RunMachines into the runner's storage: it clears the Report's
// maps and zeroes StepsBy in place, and a run that ends on its budget
// returns the runner's own *BudgetError. The Report and the error are valid
// until the next Run.
func (r *Runner) Run(cfg Config, machines []StepMachine) (*Report, error) {
	n := cfg.Pattern.N()
	if len(machines) != n {
		panic(fmt.Sprintf("sim: %d machines for %d processes", len(machines), n))
	}
	if cfg.Schedule == nil {
		panic("sim: nil Schedule")
	}
	budget := cfg.Budget
	if budget == 0 {
		budget = DefaultBudget
	}

	rep := &r.rep
	decidedBy, decidedAt, stepsBy := rep.Decided, rep.DecidedAt, rep.StepsBy
	if decidedBy == nil {
		decidedBy, decidedAt = make(map[PID]Value), make(map[PID]Time)
	}
	clear(decidedBy)
	clear(decidedAt)
	if cap(stepsBy) < n {
		stepsBy = make([]int64, n)
	}
	stepsBy = stepsBy[:n]
	clear(stepsBy)
	*rep = Report{Decided: decidedBy, DecidedAt: decidedAt, StepsBy: stepsBy, Accesses: cfg.AccessLog}
	for i := range machines {
		machines[i].Init(MachineContext{ID: PID(i), N: n, Log: cfg.AccessLog, Queries: cfg.Queries})
	}

	// live holds the processes that have neither returned nor crashed; the
	// decided ones among them are running.
	live, decided := FullSet(n), EmptySet
	correct := cfg.Pattern.Correct()
	faulty := correct.Complement(n)
	var t Time
	for {
		if running := live & decided; running != 0 && correct.SubsetOf(decided) {
			break
		}
		next := t + 1
		for s := live & faulty; s != 0; s &= s - 1 {
			if p := s.Min(); cfg.Pattern.CrashAt(p) <= next {
				live = live.Remove(p)
				rep.Crashed = rep.Crashed.Add(p)
			}
		}
		if live.IsEmpty() {
			break // every process returned or crashed
		}
		if rep.Steps >= budget {
			rep.BudgetExhausted = true
			break
		}

		pid := cfg.Schedule.Next(next, live)
		if !live.Has(pid) {
			panic(fmt.Sprintf("sim: schedule chose %v not in enabled %v", pid, live))
		}
		t = next
		cfg.AccessLog.BeginStep()
		cfg.Queries.OnStep(t)
		status := machines[pid].Step(t)
		cfg.AccessLog.EndStep(pid)
		rep.Steps++
		rep.StepsBy[pid]++
		switch status {
		case MachineDecided, MachineDecidedRunning:
			if !decided.Has(pid) {
				decided = decided.Add(pid)
				rep.Decided[pid] = machines[pid].Decision()
				rep.DecidedAt[pid] = t
			}
			if status == MachineDecided {
				live = live.Remove(pid)
			}
		case MachineHalted:
			live = live.Remove(pid)
			rep.Halted = rep.Halted.Add(pid)
		}

		if cfg.StopWhen != nil && cfg.StopWhen(t) {
			rep.Stopped = true
			break
		}
	}
	rep.Crashed = rep.Crashed.Union(live)

	if !correct.SubsetOf(decided.Union(rep.Halted)) {
		r.err = BudgetError{Pattern: cfg.Pattern, Steps: rep.Steps}
		return rep, &r.err
	}
	return rep, nil
}

// MachineTaskSet holds the machines of one logical process's parallel tasks.
type MachineTaskSet []StepMachine

// TaskMachines turns each multi-task process into one step machine. The
// paper's Figure 3 algorithm explicitly runs "two parallel tasks" inside
// each process; composing a reduction with an algorithm that consumes the
// emulated detector likewise puts two automata inside one process. A process
// made of several automata is itself one automaton with an explicit local
// scheduler: all tasks of process i share identity PID i (and its failure
// fate), every atomic step belongs to exactly one task, the schedule decides
// which *process* steps and the process's machine rotates fairly among its
// live tasks. Report fields are per logical process (StepsBy sums a
// process's tasks).
//
// A process decides with its first deciding task; its other tasks keep
// running (reductions never return), so RunMachines ends the run once every
// correct process has decided. A process halts when all its tasks returned
// and none decided.
//
// A wrapper can be run again: Init re-arms its local scheduler, so a
// process whose tasks are re-armed for another run (their protocol's Reset)
// runs on the same wrapper as on a new one.
func TaskMachines(sets []MachineTaskSet) []StepMachine {
	out := make([]StepMachine, len(sets))
	for i, tasks := range sets {
		if len(tasks) == 0 {
			panic(fmt.Sprintf("sim: process %d has no tasks", i))
		}
		out[i] = &taskMachine{tasks: tasks, done: make([]bool, len(tasks))}
	}
	return out
}

// taskMachine is one process's task set run as a single machine.
type taskMachine struct {
	tasks   MachineTaskSet
	done    []bool // done[k]: task k returned
	live    int    // tasks not yet returned
	last    int    // the task stepped last
	decided bool
	value   Value
}

// Init re-arms the local scheduler and initializes every task, in order,
// with the process's context.
func (m *taskMachine) Init(ctx MachineContext) {
	clear(m.done)
	m.live, m.last, m.decided, m.value = len(m.tasks), 0, false, 0
	for _, task := range m.tasks {
		task.Init(ctx)
	}
}

// Step grants the step to the next live task after the one stepped last, so
// the first step goes to the second task.
func (m *taskMachine) Step(t Time) MachineStatus {
	k := (m.last + 1) % len(m.tasks)
	for m.done[k] {
		k = (k + 1) % len(m.tasks)
	}
	m.last = k
	status := m.tasks[k].Step(t)
	if status == MachineRunning {
		return MachineRunning
	}
	m.done[k] = true
	m.live--
	first := status == MachineDecided && !m.decided
	if first {
		m.decided, m.value = true, m.tasks[k].Decision()
	}
	switch {
	case m.live > 0 && first:
		return MachineDecidedRunning
	case m.live > 0:
		return MachineRunning
	case m.decided:
		return MachineDecided
	}
	return MachineHalted
}

// Decision returns the first deciding task's decision.
func (m *taskMachine) Decision() Value { return m.value }
