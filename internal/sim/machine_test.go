package sim

import (
	"encoding/json"
	"errors"
	"testing"
)

// countdownMachine takes steps-1 no-op steps, then decides (or halts) on its
// last step. Init re-arms it, so it can be run again.
type countdownMachine struct {
	steps   int
	val     Value
	decides bool
	taken   int
}

func (m *countdownMachine) Init(MachineContext) { m.taken = 0 }
func (m *countdownMachine) Decision() Value     { return m.val }
func (m *countdownMachine) Step(Time) MachineStatus {
	m.taken++
	if m.taken < m.steps {
		return MachineRunning
	}
	if m.decides {
		return MachineDecided
	}
	return MachineHalted
}

// spinMachine never returns; every step is a no-op.
type spinMachine struct{}

func (spinMachine) Init(MachineContext)     {}
func (spinMachine) Decision() Value         { return 0 }
func (spinMachine) Step(Time) MachineStatus { return MachineRunning }

// TestRunMachinesMatchesRunToyWorkloads pins RunMachines on toy workloads to
// the Reports of the goroutine-per-process runner the simulator used to
// carry, recorded while both engines existed and agreed on every case. One
// Runner then runs every case in turn, over process counts 2 and 3, and
// each of its reused Reports must match the pin as well.
func TestRunMachinesMatchesRunToyWorkloads(t *testing.T) {
	type tc struct {
		name     string
		pattern  Pattern
		budget   int64
		stopAt   Time
		machines func() []StepMachine
		want     map[string]string // per schedule: the reference Report, as JSON
	}
	var runner Runner
	cases := []tc{
		{
			name: "all-decide",
			want: map[string]string{
				"roundrobin": `{"Decided":{"0":10,"1":20,"2":30},"DecidedAt":{"0":6,"1":2,"2":9},"Halted":0,"Crashed":0,"Steps":9,"StepsBy":[3,1,5],"Stopped":false,"BudgetExhausted":false,"Accesses":null}`,
				"random":     `{"Decided":{"0":10,"1":20,"2":30},"DecidedAt":{"0":9,"1":5,"2":7},"Halted":0,"Crashed":0,"Steps":9,"StepsBy":[3,1,5],"Stopped":false,"BudgetExhausted":false,"Accesses":null}`,
			},
			pattern: FailFree(3),
			machines: func() []StepMachine {
				return []StepMachine{
					&countdownMachine{steps: 3, val: 10, decides: true},
					&countdownMachine{steps: 1, val: 20, decides: true},
					&countdownMachine{steps: 5, val: 30, decides: true},
				}
			},
		},
		{
			name: "halt-without-deciding",
			want: map[string]string{
				"roundrobin": `{"Decided":{"1":7},"DecidedAt":{"1":6},"Halted":1,"Crashed":0,"Steps":6,"StepsBy":[2,4],"Stopped":false,"BudgetExhausted":false,"Accesses":null}`,
				"random":     `{"Decided":{"1":7},"DecidedAt":{"1":6},"Halted":1,"Crashed":0,"Steps":6,"StepsBy":[2,4],"Stopped":false,"BudgetExhausted":false,"Accesses":null}`,
			},
			pattern: FailFree(2),
			machines: func() []StepMachine {
				return []StepMachine{
					&countdownMachine{steps: 2, val: 0, decides: false},
					&countdownMachine{steps: 4, val: 7, decides: true},
				}
			},
		},
		{
			name: "crash-mid-run",
			want: map[string]string{
				"roundrobin": `{"Decided":{"0":1,"2":3},"DecidedAt":{"0":12,"2":13},"Halted":0,"Crashed":2,"Steps":13,"StepsBy":[6,1,6],"Stopped":false,"BudgetExhausted":false,"Accesses":null}`,
				"random":     `{"Decided":{"0":1,"2":3},"DecidedAt":{"0":12,"2":7},"Halted":0,"Crashed":2,"Steps":12,"StepsBy":[6,0,6],"Stopped":false,"BudgetExhausted":false,"Accesses":null}`,
			},
			pattern: CrashPattern(3, map[PID]Time{1: 4}),
			machines: func() []StepMachine {
				return []StepMachine{
					&countdownMachine{steps: 6, val: 1, decides: true},
					&countdownMachine{steps: 50, val: 2, decides: true},
					&countdownMachine{steps: 6, val: 3, decides: true},
				}
			},
		},
		{
			name: "crash-before-first-step",
			want: map[string]string{
				"roundrobin": `{"Decided":{"1":2},"DecidedAt":{"1":2},"Halted":0,"Crashed":1,"Steps":2,"StepsBy":[0,2],"Stopped":false,"BudgetExhausted":false,"Accesses":null}`,
				"random":     `{"Decided":{"1":2},"DecidedAt":{"1":2},"Halted":0,"Crashed":1,"Steps":2,"StepsBy":[0,2],"Stopped":false,"BudgetExhausted":false,"Accesses":null}`,
			},
			pattern: CrashPattern(2, map[PID]Time{0: 0}),
			machines: func() []StepMachine {
				return []StepMachine{
					&countdownMachine{steps: 9, val: 1, decides: true},
					&countdownMachine{steps: 2, val: 2, decides: true},
				}
			},
		},
		{
			name: "budget-exhausted",
			want: map[string]string{
				"roundrobin": `{"Decided":{},"DecidedAt":{},"Halted":0,"Crashed":3,"Steps":25,"StepsBy":[13,12],"Stopped":false,"BudgetExhausted":true,"Accesses":null}`,
				"random":     `{"Decided":{},"DecidedAt":{},"Halted":0,"Crashed":3,"Steps":25,"StepsBy":[12,13],"Stopped":false,"BudgetExhausted":true,"Accesses":null}`,
			},
			pattern: FailFree(2),
			budget:  25,
			machines: func() []StepMachine {
				return []StepMachine{spinMachine{}, spinMachine{}}
			},
		},
		{
			name: "stop-when",
			want: map[string]string{
				"roundrobin": `{"Decided":{"1":5},"DecidedAt":{"1":6},"Halted":0,"Crashed":1,"Steps":13,"StepsBy":[10,3],"Stopped":true,"BudgetExhausted":false,"Accesses":null}`,
				"random":     `{"Decided":{"1":5},"DecidedAt":{"1":5},"Halted":0,"Crashed":1,"Steps":13,"StepsBy":[10,3],"Stopped":true,"BudgetExhausted":false,"Accesses":null}`,
			},
			pattern: FailFree(2),
			stopAt:  13,
			machines: func() []StepMachine {
				return []StepMachine{spinMachine{}, &countdownMachine{steps: 3, val: 5, decides: true}}
			},
		},
	}
	for _, c := range cases {
		for _, sched := range []string{"roundrobin", "random"} {
			t.Run(c.name+"/"+sched, func(t *testing.T) {
				mk := func() Schedule {
					if sched == "random" {
						return NewRandom(42)
					}
					return RoundRobin()
				}
				mkCfg := func() Config {
					cfg := Config{Pattern: c.pattern, Schedule: mk(), Budget: c.budget}
					if c.stopAt > 0 {
						stop := c.stopAt
						cfg.StopWhen = func(t Time) bool { return t >= stop }
					}
					return cfg
				}
				rep, err := RunMachines(mkCfg(), c.machines())
				requireReport(t, rep, err, c.want[sched])
				rep, err = runner.Run(mkCfg(), c.machines())
				requireReport(t, rep, err, c.want[sched])
			})
		}
	}
}

// TestRunnerBudgetError: a run into a reused Report that ends before every
// correct process decided returns the runner's own *BudgetError, with the
// message, errors.Is and errors.As of the one RunMachines returns, and the
// next run's error carries the next run's facts.
func TestRunnerBudgetError(t *testing.T) {
	var runner Runner
	for _, budget := range []int64{25, 40} {
		cfg := func() Config {
			return Config{Pattern: FailFree(2), Schedule: RoundRobin(), Budget: budget}
		}
		_, want := RunMachines(cfg(), []StepMachine{spinMachine{}, spinMachine{}})
		_, got := runner.Run(cfg(), []StepMachine{spinMachine{}, spinMachine{}})
		if got == nil || got.Error() != want.Error() {
			t.Fatalf("budget %d: runner error %v, RunMachines %v", budget, got, want)
		}
		var be *BudgetError
		if !errors.Is(got, ErrBudgetExhausted) || !errors.As(got, &be) || be.Steps != budget {
			t.Fatalf("budget %d: runner error %v does not unwrap to a BudgetError of %d steps", budget, got, budget)
		}
	}
}

// requireReport compares rep with a reference Report given as JSON, and err
// with the reference's outcome: a successful run exactly when every correct
// process returned (neither budget-exhausted nor stopped).
func requireReport(t *testing.T, rep *Report, err error, want string) {
	t.Helper()
	got, jerr := json.Marshal(rep)
	if jerr != nil {
		t.Fatal(jerr)
	}
	if string(got) != want {
		t.Fatalf("report mismatch:\n got  %s\n want %s", got, want)
	}
	if failed := rep.BudgetExhausted || rep.Stopped; (err != nil) != failed {
		t.Fatalf("err = %v for report %s", err, got)
	}
}

// TestRunTaskMachinesRotation pins the fair local task rotation of
// TaskMachines, one spin task plus one decider per process under both
// schedules, to Reports recorded on the goroutine-per-process runner.
func TestRunTaskMachinesRotation(t *testing.T) {
	pattern := CrashPattern(3, map[PID]Time{2: 9})
	mkMachines := func() []MachineTaskSet {
		out := make([]MachineTaskSet, 3)
		for i := range out {
			out[i] = MachineTaskSet{
				spinMachine{},
				&countdownMachine{steps: 4 + i, val: Value(100 + i), decides: true},
			}
		}
		return out
	}
	want := map[string]string{
		"roundrobin": `{"Decided":{"0":100,"1":101},"DecidedAt":{"0":15,"1":20},"Halted":0,"Crashed":7,"Steps":20,"StepsBy":[9,9,2],"Stopped":false,"BudgetExhausted":false,"Accesses":null}`,
		"random":     `{"Decided":{"0":100,"1":101},"DecidedAt":{"0":13,"1":26},"Halted":0,"Crashed":7,"Steps":26,"StepsBy":[14,9,3],"Stopped":false,"BudgetExhausted":false,"Accesses":null}`,
	}
	for _, sched := range []string{"roundrobin", "random"} {
		t.Run(sched, func(t *testing.T) {
			mk := func() Schedule {
				if sched == "random" {
					return NewRandom(7)
				}
				return RoundRobin()
			}
			rep, err := RunMachines(Config{Pattern: pattern, Schedule: mk(), Budget: 50_000}, TaskMachines(mkMachines()))
			requireReport(t, rep, err, want[sched])
		})
	}
}

// TestTaskMachinesRunAgain: a TaskMachines wrapper can be run again. The
// first run of the rotation test's task sets leaves every wrapper with a
// returned task, two of them decided and one crashed mid-rotation; a second
// run on the same wrappers, whose tasks re-arm themselves in Init, must give
// the Report of the first, under both schedules.
func TestTaskMachinesRunAgain(t *testing.T) {
	pattern := CrashPattern(3, map[PID]Time{2: 9})
	for _, mk := range []func() Schedule{RoundRobin, func() Schedule { return NewRandom(7) }} {
		sets := make([]MachineTaskSet, 3)
		for i := range sets {
			sets[i] = MachineTaskSet{
				spinMachine{},
				&countdownMachine{steps: 4 + i, val: Value(100 + i), decides: true},
			}
		}
		machines := TaskMachines(sets)
		var first []byte
		for run := 1; run <= 2; run++ {
			rep, err := RunMachines(Config{Pattern: pattern, Schedule: mk(), Budget: 50_000}, machines)
			if err != nil || len(rep.Decided) != 2 {
				t.Fatalf("run %d: %d decided, error %v; want p0 and p1 decided", run, len(rep.Decided), err)
			}
			got, jerr := json.Marshal(rep)
			if jerr != nil {
				t.Fatal(jerr)
			}
			if run == 1 {
				first = got
			} else if string(got) != string(first) {
				t.Fatalf("second run on the same wrappers:\n got  %s\n want %s", got, first)
			}
		}
	}
}

// TestRunMachinesStopRule pins where a run ends under one crash pattern and
// schedule, once with single machines and once with task sets. The
// single-machine run keeps stepping the live, undecided, faulty p2 until it
// crashes; the task-set run ends as soon as its one correct process has
// decided, and both processes, still live, are reported crashed.
func TestRunMachinesStopRule(t *testing.T) {
	pattern := CrashPattern(2, map[PID]Time{1: 20})
	decider := func() StepMachine { return &countdownMachine{steps: 3, val: 10, decides: true} }
	for _, tc := range []struct {
		name     string
		machines []StepMachine
		want     string
	}{
		{
			name:     "single",
			machines: []StepMachine{decider(), spinMachine{}},
			want:     `{"Decided":{"0":10},"DecidedAt":{"0":5},"Halted":0,"Crashed":2,"Steps":19,"StepsBy":[3,16],"Stopped":false,"BudgetExhausted":false,"Accesses":null}`,
		},
		{
			name:     "task-sets",
			machines: TaskMachines([]MachineTaskSet{{decider(), spinMachine{}}, {spinMachine{}, spinMachine{}}}),
			want:     `{"Decided":{"0":10},"DecidedAt":{"0":11},"Halted":0,"Crashed":3,"Steps":11,"StepsBy":[6,5],"Stopped":false,"BudgetExhausted":false,"Accesses":null}`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := RunMachines(Config{Pattern: pattern, Schedule: RoundRobin()}, tc.machines)
			requireReport(t, rep, err, tc.want)
		})
	}
}

// TestRunMachinesZeroAllocSteps guards the machine runner's core promise:
// once a run is warmed up, granting steps allocates nothing.
func TestRunMachinesZeroAllocSteps(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() {
		_, err := RunMachines(Config{
			Pattern:  FailFree(4),
			Schedule: RoundRobin(),
			Budget:   40_000,
		}, []StepMachine{
			&countdownMachine{steps: 9000, val: 1, decides: true},
			&countdownMachine{steps: 9000, val: 2, decides: true},
			&countdownMachine{steps: 9000, val: 3, decides: true},
			&countdownMachine{steps: 9000, val: 4, decides: true},
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	// ~36k steps per run; the only allocations allowed are the per-run report
	// structures (maps, StepsBy, machine slice bookkeeping).
	if allocs > 20 {
		t.Fatalf("RunMachines allocated %.0f objects per 36k-step run; want fixed per-run overhead only", allocs)
	}
}
