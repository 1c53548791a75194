package core

import (
	"errors"
	"fmt"
	"testing"

	"weakestfd/internal/check"
	"weakestfd/internal/memory"
	"weakestfd/internal/sim"
)

// runUpsilon1ToOmega drives the Section 5.3 reduction to its budget and
// returns the Ω-output trace.
func runUpsilon1ToOmega(t *testing.T, pattern sim.Pattern, upsilon sim.Oracle, sched sim.Schedule, budget int64) *check.OutputTrace[memory.Opt[sim.PID]] {
	t.Helper()
	n := pattern.N()
	red := NewUpsilon1ToOmega(n, upsilon)
	machines := make([]sim.StepMachine, n)
	for i := range machines {
		machines[i] = red.Machine()
	}
	trace := check.NewOutputTrace[memory.Opt[sim.PID]](n, red.OutputAt)
	rep, err := sim.RunMachines(sim.Config{
		Pattern:  pattern,
		Schedule: sched,
		Budget:   budget,
		StopWhen: trace.Hook(),
	}, machines)
	if err != nil && !errors.Is(err, sim.ErrBudgetExhausted) {
		t.Fatalf("reduction run: %v", err)
	}
	_ = rep
	return trace
}

func TestUpsilon1ToOmegaProperSubsetCase(t *testing.T) {
	// Υ¹ stabilizes on a proper subset U (size n): the elected leader is
	// the single process outside U, which the paper argues must be correct.
	n := 4
	pattern := sim.CrashPattern(n, map[sim.PID]sim.Time{2: 90})
	spec := UpsilonF(n, 1)
	// U = Π − {p1}: legal (size 3 = n+1−f... here n−1, and ≠ correct).
	u := sim.SetOf(0).Complement(n)
	if err := spec.LegalStable(pattern, u); err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		h := spec.HistoryWithStable(pattern, 150, seed, u)
		trace := runUpsilon1ToOmega(t, pattern, h, sim.NewRandom(seed), 40_000)
		stable, _, err := trace.StableFrom(pattern.Correct())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !stable.OK || stable.V != 0 {
			t.Fatalf("seed %d: leader = %+v, want p1", seed, stable)
		}
	}
}

func TestUpsilon1ToOmegaFullSetCase(t *testing.T) {
	// Υ¹ stabilizes on Π (legal only when exactly one process is faulty):
	// the timestamp mechanism must elect a correct leader — the faulty
	// process's heartbeat freezes and it drops out of the freshest n.
	n := 4
	for faulty := 0; faulty < n; faulty++ {
		t.Run(fmt.Sprintf("faulty-p%d", faulty+1), func(t *testing.T) {
			pattern := sim.CrashPattern(n, map[sim.PID]sim.Time{sim.PID(faulty): 120})
			spec := UpsilonF(n, 1)
			h := spec.HistoryWithStable(pattern, 60, 1, sim.FullSet(n))
			trace := runUpsilon1ToOmega(t, pattern, h, sim.RoundRobin(), 40_000)
			stable, _, err := trace.StableFrom(pattern.Correct())
			if err != nil {
				t.Fatal(err)
			}
			if !stable.OK || !pattern.Correct().Has(stable.V) {
				t.Fatalf("leader %+v not correct (correct=%v)", stable, pattern.Correct())
			}
			// The elected leader should be the smallest-id correct process.
			if want := pattern.Correct().Min(); stable.V != want {
				t.Fatalf("leader %v, want %v", stable.V, want)
			}
		})
	}
}

func TestUpsilon1ToOmegaFailFree(t *testing.T) {
	// Failure-free in E_1: Υ¹ cannot output Π forever (Π = correct), so the
	// proper-subset case applies and the complement leader is correct.
	n := 5
	pattern := sim.FailFree(n)
	spec := UpsilonF(n, 1)
	for seed := int64(0); seed < 5; seed++ {
		h := spec.History(pattern, 100, seed)
		trace := runUpsilon1ToOmega(t, pattern, h, sim.NewRandom(seed+7), 40_000)
		stable, _, err := trace.StableFrom(pattern.Correct())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !stable.OK || !pattern.Correct().Has(stable.V) {
			t.Fatalf("seed %d: leader %+v not correct", seed, stable)
		}
	}
}

func TestUpsilon1ToOmegaNeedsTwoProcesses(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewUpsilon1ToOmega(1, nil)
}
