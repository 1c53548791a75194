package core

import (
	"fmt"
	"testing"

	"weakestfd/internal/check"
	"weakestfd/internal/converge"
	"weakestfd/internal/fd"
	"weakestfd/internal/sim"
)

// runComposed solves set agreement using a stable detector through the
// Figure 3 + Figure 1 composition and verifies the agreement properties.
func runComposed(t *testing.T, pattern sim.Pattern, d sim.Oracle, phi Phi, sched sim.Schedule, budget int64) *sim.Report {
	t.Helper()
	n := pattern.N()
	c := NewComposed(n, d, phi, converge.UseAtomic)
	proposals := make([]sim.Value, n)
	for i := range proposals {
		proposals[i] = sim.Value(100 + i)
	}
	rep, err := sim.RunMachines(sim.Config{Pattern: pattern, Schedule: sched, Budget: budget},
		sim.TaskMachines(c.MachineTaskSets(proposals)))
	if err != nil {
		t.Fatalf("composed run failed: %v", err)
	}
	if err := check.SetAgreement(rep, pattern, c.K(), proposals); err != nil {
		t.Fatalf("composed run violated set agreement: %v", err)
	}
	return rep
}

func TestComposedSolvesWithOmega(t *testing.T) {
	// Set agreement using Ω — but only through the generic machinery: no
	// Ω-specific algorithm anywhere in the pipeline.
	patterns := map[string]sim.Pattern{
		"failfree": sim.FailFree(4),
		"crash1":   sim.CrashPattern(4, map[sim.PID]sim.Time{1: 60}),
		"crash3":   sim.CrashPattern(4, map[sim.PID]sim.Time{0: 40, 1: 90, 3: 140}),
	}
	for name, pattern := range patterns {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				omega := fd.NewOmega(pattern, 100, seed)
				runComposed(t, pattern, omega, PhiOmega(4), sim.NewRandom(seed), 1<<21)
			}
		})
	}
}

func TestComposedSolvesWithOmegaN(t *testing.T) {
	n := 5
	pattern := sim.CrashPattern(n, map[sim.PID]sim.Time{2: 70})
	for seed := int64(0); seed < 4; seed++ {
		omegaN := fd.NewOmegaF(pattern, n-1, 120, seed)
		runComposed(t, pattern, omegaN, PhiOmegaF(n), sim.NewRandom(seed+9), 1<<21)
	}
}

func TestComposedSolvesWithStableEvPerfect(t *testing.T) {
	n := 4
	pattern := sim.CrashPattern(n, map[sim.PID]sim.Time{3: 50})
	evp := fd.NewStableEvPerfect(pattern, 90, 3)
	runComposed(t, pattern, evp, PhiStableEvPerfect(n), sim.NewRandom(2), 1<<21)
}

func TestComposedRoundRobin(t *testing.T) {
	n := 4
	pattern := sim.FailFree(n)
	omega := fd.NewOmega(pattern, 200, 5)
	rep := runComposed(t, pattern, omega, PhiOmega(n), sim.RoundRobin(), 1<<22)
	t.Logf("lockstep composed run: %d steps", rep.Steps)
}

func TestComposedWithBatchSlack(t *testing.T) {
	// The batch-counting extraction path composes too.
	n := 4
	pattern := sim.FailFree(n)
	omega := fd.NewOmega(pattern, 150, 1)
	runComposed(t, pattern, omega, PhiOmegaSlack(n, 2), sim.NewRandom(3), 1<<22)
}

func TestComposedEmulatedOracleFallback(t *testing.T) {
	// Before the extraction initializes, the emulated oracle answers Π — a
	// set of legal size, so the protocol's arithmetic stays in range.
	n := 3
	ex := NewExtraction(n, fd.Constant(sim.PID(0)), PhiOmega(n))
	oracle := ex.Emulated()
	if got := oracle.Value(1, 0).(sim.Set); got != sim.FullSet(n) {
		t.Fatalf("fallback = %v, want Π", got)
	}
}

func TestComposedStepsSplitAcrossTasks(t *testing.T) {
	// Both tasks of each process make progress: the reduction's outputs
	// stabilize AND the protocol decides in the same run.
	n := 4
	pattern := sim.FailFree(n)
	omega := fd.NewOmega(pattern, 50, 7)
	c := NewComposed(n, omega, PhiOmega(n), converge.UseAtomic)
	proposals := []sim.Value{100, 101, 102, 103}
	rep, err := sim.RunMachines(sim.Config{
		Pattern: pattern, Schedule: sim.NewRandom(11), Budget: 1 << 21,
	}, sim.TaskMachines(c.MachineTaskSets(proposals)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Decided) != n {
		t.Fatalf("decided %d/%d", len(rep.Decided), n)
	}
	// The extraction outputs must be non-trivial by decision time at the
	// processes that got far enough (Π or the complement — both legal).
	for i := 0; i < n; i++ {
		if c.Extraction().OutputAt(sim.PID(i)).IsEmpty() {
			t.Errorf("extraction at p%d never initialized", i+1)
		}
	}
}

// yieldMachine takes steps no-op steps, then decides decide(me); steps < 0
// never returns.
type yieldMachine struct {
	steps  int
	decide func(me sim.PID) sim.Value
	onStep func()
	me     sim.PID
	n      int
	v      sim.Value
}

func (m *yieldMachine) Init(ctx sim.MachineContext) { m.me = ctx.ID }

func (m *yieldMachine) Step(sim.Time) sim.MachineStatus {
	if m.onStep != nil {
		m.onStep()
	}
	if m.n++; m.steps < 0 || m.n < m.steps {
		return sim.MachineRunning
	}
	m.v = m.decide(m.me)
	return sim.MachineDecided
}

func (m *yieldMachine) Decision() sim.Value { return m.v }

func TestRunTasksMultiTaskSemantics(t *testing.T) {
	// Direct TaskMachines checks: a process with a deciding task and a
	// forever task decides; crash kills both tasks; fairness rotates tasks.
	n := 2
	pattern := sim.CrashPattern(n, map[sim.PID]sim.Time{1: 7})
	var foreverSteps int64
	sets := make([]sim.MachineTaskSet, n)
	for i := range sets {
		sets[i] = sim.MachineTaskSet{
			&yieldMachine{steps: 5, decide: func(me sim.PID) sim.Value { return sim.Value(me) }},
			&yieldMachine{steps: -1, onStep: func() { foreverSteps++ }},
		}
	}
	rep, err := sim.RunMachines(sim.Config{Pattern: pattern, Schedule: sim.RoundRobin(), Budget: 1 << 16}, sim.TaskMachines(sets))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decided[0] != 0 {
		t.Fatalf("p1 decision missing: %v", rep.Decided)
	}
	if _, ok := rep.Decided[1]; ok {
		t.Fatal("crashed process decided")
	}
	if !rep.Crashed.Has(1) {
		t.Fatal("p2 should be crashed")
	}
	if foreverSteps == 0 {
		t.Fatal("forever task starved")
	}
}

func TestRunTasksSingleTaskMatchesRun(t *testing.T) {
	// A task set of one task runs exactly as its task alone.
	double := func(me sim.PID) sim.Value { return sim.Value(me) * 2 }
	pattern := sim.FailFree(3)
	machines := make([]sim.StepMachine, 3)
	sets := make([]sim.MachineTaskSet, 3)
	for i := range machines {
		machines[i] = &yieldMachine{steps: 4, decide: double}
		sets[i] = sim.MachineTaskSet{&yieldMachine{steps: 4, decide: double}}
	}
	a, err := sim.RunMachines(sim.Config{Pattern: pattern, Schedule: sim.RoundRobin()}, machines)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.RunMachines(sim.Config{Pattern: pattern, Schedule: sim.RoundRobin()}, sim.TaskMachines(sets))
	if err != nil {
		t.Fatal(err)
	}
	if a.Steps != b.Steps {
		t.Fatalf("steps differ: %d vs %d", a.Steps, b.Steps)
	}
	for p, v := range a.Decided {
		if b.Decided[p] != v {
			t.Fatalf("decisions differ at %v", p)
		}
	}
}

func TestRunTasksValidation(t *testing.T) {
	for name, sets := range map[string][]sim.MachineTaskSet{
		"wrong count": {{&yieldMachine{steps: -1}}},
		"empty tasks": {{}, {}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			_, _ = sim.RunMachines(sim.Config{Pattern: sim.FailFree(2), Schedule: sim.RoundRobin()}, sim.TaskMachines(sets))
		}()
	}
}

func TestComposedGrid(t *testing.T) {
	// Broader grid: sizes × detectors, all through the generic pipeline.
	for _, n := range []int{3, 5} {
		for _, det := range []string{"omega", "omegaN", "evp"} {
			t.Run(fmt.Sprintf("n%d/%s", n, det), func(t *testing.T) {
				pattern := sim.CrashPattern(n, map[sim.PID]sim.Time{sim.PID(n - 1): 80})
				var (
					oracle sim.Oracle
					phi    Phi
				)
				switch det {
				case "omega":
					oracle = fd.NewOmega(pattern, 100, 1)
					phi = PhiOmega(n)
				case "omegaN":
					oracle = fd.NewOmegaF(pattern, n-1, 100, 1)
					phi = PhiOmegaF(n)
				case "evp":
					oracle = fd.NewStableEvPerfect(pattern, 100, 1)
					phi = PhiStableEvPerfect(n)
				}
				runComposed(t, pattern, oracle, phi, sim.NewRandom(4), 1<<22)
			})
		}
	}
}
