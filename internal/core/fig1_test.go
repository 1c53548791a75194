package core

import (
	"fmt"
	"testing"

	"weakestfd/internal/check"
	"weakestfd/internal/converge"
	"weakestfd/internal/fd"
	"weakestfd/internal/sim"
)

// runFig1 executes one Figure 1 run and verifies the n−1-set-agreement
// properties.
func runFig1(t *testing.T, pattern sim.Pattern, upsilon sim.Oracle, impl converge.Impl, sched sim.Schedule, budget int64) *sim.Report {
	t.Helper()
	n := pattern.N()
	g := NewFig1(n, upsilon, impl)
	machines := make([]sim.StepMachine, n)
	proposals := make([]sim.Value, n)
	for i := range machines {
		proposals[i] = sim.Value(100 + i) // all distinct: the hard case
		machines[i] = g.Machine(proposals[i])
	}
	rep, err := sim.RunMachines(sim.Config{Pattern: pattern, Schedule: sched, Budget: budget}, machines)
	if err != nil {
		t.Fatalf("fig1 run failed: %v", err)
	}
	if err := check.SetAgreement(rep, pattern, g.K(), proposals); err != nil {
		t.Fatalf("fig1 violated set agreement: %v", err)
	}
	return rep
}

// patternsFor enumerates representative failure patterns for n processes:
// failure-free, a single early crash, a late crash, and the wait-free
// extreme where all but one process crash at staggered times.
func patternsFor(n int) map[string]sim.Pattern {
	single := map[sim.PID]sim.Time{sim.PID(n / 2): 11}
	late := map[sim.PID]sim.Time{0: 900}
	waitFree := map[sim.PID]sim.Time{}
	for i := 1; i < n; i++ {
		waitFree[sim.PID(i)] = sim.Time(7 * i)
	}
	return map[string]sim.Pattern{
		"failfree":  sim.FailFree(n),
		"one-crash": sim.CrashPattern(n, single),
		"late":      sim.CrashPattern(n, late),
		"wait-free": sim.CrashPattern(n, waitFree),
	}
}

func TestFig1Sweep(t *testing.T) {
	for n := 2; n <= 7; n++ {
		for pname, pattern := range patternsFor(n) {
			for _, ts := range []sim.Time{0, 150, 1500} {
				name := fmt.Sprintf("n%d/%s/ts%d", n, pname, ts)
				t.Run(name, func(t *testing.T) {
					for seed := int64(0); seed < 4; seed++ {
						h := Upsilon(n).History(pattern, ts, seed)
						runFig1(t, pattern, h, converge.UseAtomic, sim.NewRandom(seed+99), 1<<21)
					}
				})
			}
		}
	}
}

func TestFig1RoundRobin(t *testing.T) {
	// Lockstep round-robin blocks the lucky early converge commits and
	// forces the gladiator machinery to do the work.
	for n := 3; n <= 6; n++ {
		pattern := sim.CrashPattern(n, map[sim.PID]sim.Time{sim.PID(n - 1): 61})
		h := Upsilon(n).History(pattern, 300, 5)
		rep := runFig1(t, pattern, h, converge.UseAtomic, sim.RoundRobin(), 1<<21)
		if rep.Steps < 50 {
			t.Errorf("n=%d suspiciously fast (%d steps) for lockstep", n, rep.Steps)
		}
	}
}

func TestFig1AllStableChoices(t *testing.T) {
	// Exhaustively run every legal stable Υ output for a 3-process system
	// with p1 faulty: {p1},{p2},{p3},{p1,p2},{p1,p3},Π (all but {p2,p3}).
	n := 3
	pattern := sim.CrashPattern(n, map[sim.PID]sim.Time{0: 31})
	spec := Upsilon(n)
	for mask := sim.Set(1); mask < sim.Set(1<<n); mask++ {
		if spec.LegalStable(pattern, mask) != nil {
			continue
		}
		t.Run(mask.String(), func(t *testing.T) {
			h := spec.HistoryWithStable(pattern, 90, 1, mask)
			runFig1(t, pattern, h, converge.UseAtomic, sim.RoundRobin(), 1<<21)
			runFig1(t, pattern, h, converge.UseAtomic, sim.NewRandom(17), 1<<21)
		})
	}
}

func TestFig1GladiatorOnlyPath(t *testing.T) {
	// Υ stabilizes on Π with one faulty process: there are no citizens, so
	// termination must come from the gladiators' (n−1)-converge shedding a
	// value once the faulty gladiator is gone — Theorem 2's case (1).
	n := 4
	pattern := sim.CrashPattern(n, map[sim.PID]sim.Time{2: 45})
	h := Upsilon(n).HistoryWithStable(pattern, 0, 1, sim.FullSet(n))
	rep := runFig1(t, pattern, h, converge.UseAtomic, sim.RoundRobin(), 1<<21)
	if len(rep.DecidedValues()) > n-1 {
		t.Fatalf("agreement: %v", rep.DecidedValues())
	}
}

func TestFig1CitizenOnlyPath(t *testing.T) {
	// Υ stabilizes on a set of faulty processes only: every correct process
	// is a citizen — Theorem 2's case (2). Decisions flow through D[r].
	n := 4
	pattern := sim.CrashPattern(n, map[sim.PID]sim.Time{0: 21, 1: 33})
	h := Upsilon(n).HistoryWithStable(pattern, 0, 1, sim.SetOf(0, 1))
	runFig1(t, pattern, h, converge.UseAtomic, sim.RoundRobin(), 1<<21)
}

func TestFig1RegistersOnly(t *testing.T) {
	// End-to-end over the Afek snapshot: the protocol genuinely runs on
	// registers alone (at quadratic step cost).
	n := 3
	pattern := sim.CrashPattern(n, map[sim.PID]sim.Time{1: 100})
	h := Upsilon(n).History(pattern, 120, 3)
	rep := runFig1(t, pattern, h, converge.UseAfek, sim.NewRandom(4), 1<<22)
	t.Logf("registers-only fig1: %d steps", rep.Steps)
}

func TestFig1Determinism(t *testing.T) {
	n := 4
	pattern := sim.CrashPattern(n, map[sim.PID]sim.Time{3: 55})
	mk := func() *sim.Report {
		h := Upsilon(n).History(pattern, 200, 8)
		return runFig1(t, pattern, h, converge.UseAtomic, sim.NewRandom(8), 1<<21)
	}
	a, b := mk(), mk()
	if a.Steps != b.Steps {
		t.Fatalf("steps differ: %d vs %d", a.Steps, b.Steps)
	}
	for p, v := range a.Decided {
		if b.Decided[p] != v {
			t.Fatalf("decisions differ at %v: %v vs %v", p, v, b.Decided[p])
		}
	}
}

// haltMachine is a non-participant: it halts, undecided, at its first step.
type haltMachine struct{}

func (haltMachine) Init(sim.MachineContext)         {}
func (haltMachine) Step(sim.Time) sim.MachineStatus { return sim.MachineHalted }
func (haltMachine) Decision() sim.Value             { return 0 }

func TestFig1NonParticipant(t *testing.T) {
	// The remark after Theorem 2: if some process never proposes, the
	// remaining n−1 values make round 1's (n−1)-converge commit, so every
	// participant decides in round 1 regardless of Υ.
	n := 4
	pattern := sim.FailFree(n)
	// An Υ history that never stabilizes within the run would be illegal,
	// but the remark needs no Υ help at all: use pure noise (stabilization
	// beyond the horizon) to show termination does not rely on it.
	h := Upsilon(n).History(pattern, 1<<30, 2)
	g := NewFig1(n, h, converge.UseAtomic)
	machines := make([]sim.StepMachine, n)
	proposals := []sim.Value{100, 101, 102, 0}
	for i := 0; i < n-1; i++ {
		machines[i] = g.Machine(proposals[i])
	}
	machines[n-1] = haltMachine{} // never participates
	rep, err := sim.RunMachines(sim.Config{Pattern: pattern, Schedule: sim.RoundRobin(), Budget: 1 << 20}, machines)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n-1; i++ {
		if _, ok := rep.Decided[sim.PID(i)]; !ok {
			t.Fatalf("participant %d did not decide", i)
		}
	}
	if len(rep.DecidedValues()) > n-1 {
		t.Fatalf("agreement violated: %v", rep.DecidedValues())
	}
}

func TestFig1SpecViolatingUpsilonLivelocks(t *testing.T) {
	// Ablation: feed Figure 1 a "dummy" detector stuck on U = correct(F) —
	// exactly what the Υ spec forbids. Under lockstep round-robin with all
	// n values distinct, no converge instance may commit and no citizen
	// exists, so the protocol livelocks: Υ's U ≠ correct clause is load-
	// bearing. (This is the executable face of the impossibility: without
	// non-trivial failure information the task is unsolvable.)
	n := 4
	pattern := sim.FailFree(n)
	dummy := fd.Constant(sim.FullSet(n)) // = correct(F): illegal for Υ
	g := NewFig1(n, dummy, converge.UseAtomic)
	machines := make([]sim.StepMachine, n)
	for i := range machines {
		machines[i] = g.Machine(sim.Value(100 + i))
	}
	rep, err := sim.RunMachines(sim.Config{Pattern: pattern, Schedule: sim.RoundRobin(), Budget: 60_000}, machines)
	if err == nil {
		t.Fatalf("run decided %v despite spec-violating Υ under lockstep", rep.DecidedValues())
	}
	if !rep.BudgetExhausted {
		t.Fatalf("expected budget exhaustion, got: %v", err)
	}
	if len(rep.Decided) != 0 {
		t.Fatalf("no process should decide, got %v", rep.Decided)
	}
}

func TestFig1ValidUpsilonSameScheduleDecides(t *testing.T) {
	// Control for the livelock ablation: the identical schedule and inputs
	// with a *legal* Υ history decide promptly.
	n := 4
	pattern := sim.FailFree(n)
	h := Upsilon(n).HistoryWithStable(pattern, 0, 1, sim.SetOf(1, 2))
	rep := runFig1(t, pattern, h, converge.UseAtomic, sim.RoundRobin(), 60_000)
	if rep.BudgetExhausted {
		t.Fatal("legal Υ should decide within the ablation budget")
	}
}

func TestFig1TwoProcesses(t *testing.T) {
	// n+1 = 2: set agreement coincides with consensus and Υ with Ω.
	pattern := sim.CrashPattern(2, map[sim.PID]sim.Time{1: 19})
	for seed := int64(0); seed < 10; seed++ {
		h := Upsilon(2).History(pattern, 60, seed)
		rep := runFig1(t, pattern, h, converge.UseAtomic, sim.NewRandom(seed), 1<<20)
		if len(rep.DecidedValues()) != 1 {
			t.Fatalf("2-process agreement must be consensus, got %v", rep.DecidedValues())
		}
	}
}

func TestFig1DecisionRegisterConsistent(t *testing.T) {
	n := 5
	pattern := sim.FailFree(n)
	h := Upsilon(n).History(pattern, 100, 6)
	g := NewFig1(n, h, converge.UseAtomic)
	machines := make([]sim.StepMachine, n)
	proposals := make([]sim.Value, n)
	for i := range machines {
		proposals[i] = sim.Value(100 + i)
		machines[i] = g.Machine(proposals[i])
	}
	rep, err := sim.RunMachines(sim.Config{Pattern: pattern, Schedule: sim.NewRandom(11), Budget: 1 << 20}, machines)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Decision()
	if !d.OK {
		t.Fatal("decision register empty after termination")
	}
	found := false
	for _, v := range rep.DecidedValues() {
		if v == d.V {
			found = true
		}
	}
	if !found {
		t.Fatalf("decision register %v not among decided %v", d.V, rep.DecidedValues())
	}
}

func TestFig1MinimumSystemSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n < 2")
		}
	}()
	NewFig1(1, fd.Constant(sim.SetOf(0)), converge.UseAtomic)
}
