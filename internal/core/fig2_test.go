package core

import (
	"fmt"
	"testing"

	"weakestfd/internal/check"
	"weakestfd/internal/converge"
	"weakestfd/internal/fd"
	"weakestfd/internal/sim"
)

// runFig2 executes one Figure 2 run and verifies f-set agreement.
func runFig2(t *testing.T, pattern sim.Pattern, f int, upsilonF sim.Oracle, impl converge.Impl, sched sim.Schedule, budget int64) *sim.Report {
	t.Helper()
	n := pattern.N()
	if !pattern.InEnvironment(f) {
		t.Fatalf("pattern %v outside E_%d", pattern, f)
	}
	g := NewFig2(n, f, upsilonF, impl)
	machines := make([]sim.StepMachine, n)
	proposals := make([]sim.Value, n)
	for i := range machines {
		proposals[i] = sim.Value(100 + i)
		machines[i] = g.Machine(proposals[i])
	}
	rep, err := sim.RunMachines(sim.Config{Pattern: pattern, Schedule: sched, Budget: budget}, machines)
	if err != nil {
		t.Fatalf("fig2 run failed: %v", err)
	}
	if err := check.SetAgreement(rep, pattern, f, proposals); err != nil {
		t.Fatalf("fig2 violated %d-set agreement: %v", f, err)
	}
	return rep
}

// crashK returns a pattern crashing the first k processes at staggered times.
func crashK(n, k int) sim.Pattern {
	crashes := make(map[sim.PID]sim.Time, k)
	for i := 0; i < k; i++ {
		crashes[sim.PID(i)] = sim.Time(13 * (i + 1))
	}
	return sim.CrashPattern(n, crashes)
}

func TestFig2Grid(t *testing.T) {
	// Sweep (n, f) and the number of actual crashes 0..f.
	for n := 3; n <= 6; n++ {
		for f := 1; f < n; f++ {
			for crashed := 0; crashed <= f; crashed++ {
				name := fmt.Sprintf("n%d/f%d/crash%d", n, f, crashed)
				t.Run(name, func(t *testing.T) {
					pattern := sim.FailFree(n)
					if crashed > 0 {
						pattern = crashK(n, crashed)
					}
					spec := UpsilonF(n, f)
					for seed := int64(0); seed < 3; seed++ {
						h := spec.History(pattern, 120, seed)
						runFig2(t, pattern, f, h, converge.UseAtomic, sim.NewRandom(seed+3), 1<<21)
					}
				})
			}
		}
	}
}

func TestFig2RoundRobin(t *testing.T) {
	for _, tc := range []struct{ n, f int }{{4, 2}, {5, 2}, {5, 3}, {6, 4}} {
		t.Run(fmt.Sprintf("n%d-f%d", tc.n, tc.f), func(t *testing.T) {
			pattern := crashK(tc.n, tc.f)
			h := UpsilonF(tc.n, tc.f).History(pattern, 250, 7)
			runFig2(t, pattern, tc.f, h, converge.UseAtomic, sim.RoundRobin(), 1<<22)
		})
	}
}

func TestFig2GladiatorSnapshotPath(t *testing.T) {
	// All citizens faulty: Υ^f stabilizes on a set containing every correct
	// process plus a faulty one, so termination must flow through the
	// snapshot batching and (|U|+f−n−1)-converge (Theorem 6's second case).
	n, f := 5, 2
	pattern := crashK(n, 2) // p1, p2 faulty
	// U = {p1, p3, p4, p5}: contains all correct (p3,p4,p5) and faulty p1;
	// citizens = {p2} faulty. |U| = 4 ≥ n+1−f = 3 and U ≠ correct.
	u := sim.SetOf(0, 2, 3, 4)
	spec := UpsilonF(n, f)
	if err := spec.LegalStable(pattern, u); err != nil {
		t.Fatal(err)
	}
	h := spec.HistoryWithStable(pattern, 0, 1, u)
	runFig2(t, pattern, f, h, converge.UseAtomic, sim.RoundRobin(), 1<<22)
	runFig2(t, pattern, f, h, converge.UseAtomic, sim.NewRandom(21), 1<<22)
}

func TestFig2CitizenPath(t *testing.T) {
	// Υ^f stabilizes on a set disjoint from the correct processes: all
	// correct processes are citizens and D[r] carries the round.
	n, f := 5, 3
	pattern := crashK(n, 3)
	u := sim.SetOf(0, 1, 2) // exactly the faulty set; |U| = 3 ≥ n+1−f = 2...
	spec := UpsilonF(n, f)
	if err := spec.LegalStable(pattern, u); err != nil {
		t.Fatal(err)
	}
	h := spec.HistoryWithStable(pattern, 0, 1, u)
	runFig2(t, pattern, f, h, converge.UseAtomic, sim.RoundRobin(), 1<<22)
}

func TestFig2MatchesFig1AtWaitFree(t *testing.T) {
	// Υ^n is Υ: with f = n−1 (wait-free), Figure 2 solves the same task as
	// Figure 1. Run both on the same pattern/history and verify both meet
	// the same (n−1)-set-agreement bar.
	n := 4
	f := n - 1
	pattern := crashK(n, 2)
	h := Upsilon(n).History(pattern, 100, 9)
	runFig1(t, pattern, h, converge.UseAtomic, sim.NewRandom(2), 1<<21)
	runFig2(t, pattern, f, h, converge.UseAtomic, sim.NewRandom(2), 1<<21)
}

func TestFig2RegistersOnly(t *testing.T) {
	n, f := 4, 2
	pattern := crashK(n, 1)
	h := UpsilonF(n, f).History(pattern, 80, 4)
	rep := runFig2(t, pattern, f, h, converge.UseAfek, sim.NewRandom(6), 1<<23)
	t.Logf("registers-only fig2: %d steps", rep.Steps)
}

func TestFig2AgreementBoundTight(t *testing.T) {
	// With f = 1, Figure 2 must reach consensus (exactly one decided value)
	// in E_1.
	n := 4
	pattern := sim.CrashPattern(n, map[sim.PID]sim.Time{2: 17})
	for seed := int64(0); seed < 8; seed++ {
		h := UpsilonF(n, 1).History(pattern, 90, seed)
		rep := runFig2(t, pattern, 1, h, converge.UseAtomic, sim.NewRandom(seed), 1<<21)
		if len(rep.DecidedValues()) != 1 {
			t.Fatalf("seed %d: f=1 must yield consensus, got %v", seed, rep.DecidedValues())
		}
	}
}

func TestFig2LateStabilization(t *testing.T) {
	n, f := 5, 2
	pattern := crashK(n, 2)
	h := UpsilonF(n, f).History(pattern, 2000, 13)
	rep := runFig2(t, pattern, f, h, converge.UseAtomic, sim.RoundRobin(), 1<<22)
	t.Logf("late stabilization: %d steps", rep.Steps)
}

func TestFig2Determinism(t *testing.T) {
	n, f := 5, 2
	pattern := crashK(n, 2)
	mk := func() *sim.Report {
		h := UpsilonF(n, f).History(pattern, 150, 3)
		return runFig2(t, pattern, f, h, converge.UseAtomic, sim.NewRandom(3), 1<<21)
	}
	a, b := mk(), mk()
	if a.Steps != b.Steps {
		t.Fatalf("steps differ: %d vs %d", a.Steps, b.Steps)
	}
}

func TestFig2ParamValidation(t *testing.T) {
	h := fd.Constant(sim.SetOf(0))
	for _, tc := range []struct{ n, f int }{{4, 0}, {4, 4}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFig2(%d, %d) should panic", tc.n, tc.f)
				}
			}()
			NewFig2(tc.n, tc.f, h, converge.UseAtomic)
		}()
	}
}

func TestFig2SpecViolatingUpsilonFLivelocks(t *testing.T) {
	// Ablation: the Υ^f clause "U ≠ correct(F)" is load-bearing. Take
	// n = 4, f = 2 and a dummy detector stuck on U = {p3, p4}. If exactly
	// p1, p2 crash, U equals the correct set (spec violation), |U| = n+1−f
	// makes the gladiators' shedding converge a 0-converge (which never
	// commits by definition), and all citizens are faulty — so once the
	// citizens crash after feeding round 1's top-level converge with four
	// distinct values (preventing an early f-converge commit) but before
	// writing D[r], the two correct gladiators loop sub-rounds forever.
	//
	// Crash timing under round-robin lockstep: a process's 10th step is its
	// citizen D[r]-write; both crash at t=37, after their 9th steps.
	n, f := 4, 2
	pattern := sim.CrashPattern(n, map[sim.PID]sim.Time{0: 37, 1: 37})
	dummy := fd.Constant(sim.SetOf(2, 3)) // = correct(F): illegal for Υ^f
	g := NewFig2(n, f, dummy, converge.UseAtomic)
	machines := make([]sim.StepMachine, n)
	for i := range machines {
		machines[i] = g.Machine(sim.Value(100 + i))
	}
	rep, err := sim.RunMachines(sim.Config{Pattern: pattern, Schedule: sim.RoundRobin(), Budget: 60_000}, machines)
	if err == nil {
		t.Fatalf("run decided %v despite spec-violating Υ^f", rep.DecidedValues())
	}
	if len(rep.Decided) != 0 {
		t.Fatalf("no process should decide, got %v", rep.Decided)
	}

	// Control: the same pattern and schedule with a *legal* stable set of
	// the same size ({p1, p4} ≠ correct) decides: p3 is a citizen and feeds
	// D[r].
	legal := fd.Constant(sim.SetOf(0, 3))
	g2 := NewFig2(n, f, legal, converge.UseAtomic)
	machines2 := make([]sim.StepMachine, n)
	for i := range machines2 {
		machines2[i] = g2.Machine(sim.Value(100 + i))
	}
	rep2, err2 := sim.RunMachines(sim.Config{Pattern: pattern, Schedule: sim.RoundRobin(), Budget: 60_000}, machines2)
	if err2 != nil {
		t.Fatalf("legal same-size U should decide: %v", err2)
	}
	if len(rep2.DecidedValues()) > f {
		t.Fatalf("agreement: %v", rep2.DecidedValues())
	}
}
