package sim

import "testing"

// tickMachine never returns; each step increments *n.
type tickMachine struct{ n *int64 }

func (m tickMachine) Init(MachineContext)     {}
func (m tickMachine) Decision() Value         { return 0 }
func (m tickMachine) Step(Time) MachineStatus { *m.n++; return MachineRunning }

func TestRunTasksBasics(t *testing.T) {
	// One deciding task and one spinning task per process: the run ends as
	// soon as every correct process has decided, with the spinners crashed.
	rep, err := RunMachines(Config{Pattern: FailFree(2), Schedule: RoundRobin()}, TaskMachines([]MachineTaskSet{
		{&countdownMachine{steps: 3, val: 10, decides: true}, spinMachine{}},
		{&countdownMachine{steps: 3, val: 11, decides: true}, spinMachine{}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decided[0] != 10 || rep.Decided[1] != 11 {
		t.Fatalf("decisions %v", rep.Decided)
	}
}

func TestRunTasksFairRotation(t *testing.T) {
	// With two spinning tasks per process, both must get steps.
	counts := make([]int64, 4) // (pid, task) flattened
	_, err := RunMachines(Config{Pattern: FailFree(2), Schedule: RoundRobin(), Budget: 400},
		TaskMachines([]MachineTaskSet{{tickMachine{&counts[0]}, tickMachine{&counts[1]}}, {tickMachine{&counts[2]}, tickMachine{&counts[3]}}}))
	if err == nil {
		t.Fatal("expected exhaustion")
	}
	for i, c := range counts {
		if c < 80 {
			t.Errorf("task %d starved: %d steps", i, c)
		}
	}
}

func TestRunTasksCrashKillsAllTasks(t *testing.T) {
	pattern := CrashPattern(2, map[PID]Time{1: 5})
	rep, err := RunMachines(Config{Pattern: pattern, Schedule: RoundRobin(), Budget: 1000}, TaskMachines([]MachineTaskSet{
		{&countdownMachine{steps: 1, val: 7, decides: true}, spinMachine{}},
		{spinMachine{}, spinMachine{}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Crashed.Has(1) {
		t.Fatal("p2 should crash")
	}
	if rep.StepsBy[1] > 4 {
		t.Fatalf("crashed process took %d steps after crash time", rep.StepsBy[1])
	}
}

func TestRunTasksStopWhen(t *testing.T) {
	rep, err := RunMachines(Config{
		Pattern:  FailFree(1),
		Schedule: RoundRobin(),
		StopWhen: func(t Time) bool { return t >= 5 },
	}, TaskMachines([]MachineTaskSet{{spinMachine{}, spinMachine{}}}))
	if err == nil {
		t.Fatal("stopped run without decisions must error")
	}
	if !rep.Stopped || rep.Steps != 5 {
		t.Fatalf("stopped=%v steps=%d", rep.Stopped, rep.Steps)
	}
}

func TestRunTasksHaltedTask(t *testing.T) {
	rep, err := RunMachines(Config{Pattern: FailFree(1), Schedule: RoundRobin()}, TaskMachines([]MachineTaskSet{{
		&countdownMachine{steps: 1, decides: false},
		// Slower than the halting task, which must finish first.
		&countdownMachine{steps: 4, val: 3, decides: true},
	}}))
	if err != nil {
		t.Fatal(err)
	}
	// Halted holds the processes that returned without deciding; a halted
	// task of a process that decided leaves it out.
	if rep.Halted.Has(0) {
		t.Error("process that decided recorded as halted")
	}
	if rep.Decided[0] != 3 {
		t.Errorf("decision %v", rep.Decided)
	}
}

func TestRunTasksFirstDecisionWins(t *testing.T) {
	// Two deciding tasks in one process: the first decision is recorded.
	rep, err := RunMachines(Config{Pattern: FailFree(1), Schedule: RoundRobin()}, TaskMachines([]MachineTaskSet{{
		&countdownMachine{steps: 10, val: 2, decides: true}, // slow
		&countdownMachine{steps: 1, val: 1, decides: true},  // fast
	}}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decided[0] != 1 {
		t.Fatalf("decision %v, want the fast task's 1", rep.Decided[0])
	}
}

func TestRunTasksBudget(t *testing.T) {
	rep, err := RunMachines(Config{Pattern: FailFree(2), Schedule: NewRandom(1), Budget: 64},
		TaskMachines([]MachineTaskSet{{spinMachine{}}, {spinMachine{}, spinMachine{}}}))
	if err == nil {
		t.Fatal("expected exhaustion")
	}
	if !rep.BudgetExhausted || rep.Steps != 64 {
		t.Fatalf("exhausted=%v steps=%d", rep.BudgetExhausted, rep.Steps)
	}
}

func TestEventuallySynchronousValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bound 0")
		}
	}()
	EventuallySynchronous(10, 0, 1)
}

func TestStarveVictimOnlyWhenAlone(t *testing.T) {
	// If the victim is the only enabled process, Starve must still grant it
	// (the schedule contract requires a member of enabled).
	rep, err := RunMachines(Config{Pattern: FailFree(1), Schedule: Starve(0, nil)},
		[]StepMachine{&countdownMachine{steps: 1, val: 1, decides: true}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decided[0] != 1 {
		t.Fatal("victim never ran")
	}
}
