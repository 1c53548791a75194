package agreement

import (
	"fmt"
	"testing"

	"weakestfd/internal/check"
	"weakestfd/internal/converge"
	"weakestfd/internal/fd"
	"weakestfd/internal/sim"
)

func TestOmegaConsensus(t *testing.T) {
	for n := 1; n <= 6; n++ {
		patterns := map[string]sim.Pattern{"failfree": sim.FailFree(n)}
		if n >= 2 {
			patterns["crash"] = sim.CrashPattern(n, map[sim.PID]sim.Time{sim.PID(n - 1): 37})
		}
		if n >= 3 {
			crashes := map[sim.PID]sim.Time{}
			for i := 1; i < n; i++ {
				crashes[sim.PID(i)] = sim.Time(11 * i)
			}
			patterns["wait-free"] = sim.CrashPattern(n, crashes)
		}
		for pname, pattern := range patterns {
			t.Run(fmt.Sprintf("n%d/%s", n, pname), func(t *testing.T) {
				for seed := int64(0); seed < 5; seed++ {
					omega := fd.NewOmega(pattern, 100, seed)
					c := NewOmegaConsensus(n, omega, converge.UseAtomic)
					machines := make([]sim.StepMachine, n)
					proposals := make([]sim.Value, n)
					for i := range machines {
						proposals[i] = sim.Value(10 + i)
						machines[i] = c.Machine(proposals[i])
					}
					rep, err := sim.RunMachines(sim.Config{
						Pattern:  pattern,
						Schedule: sim.NewRandom(seed + 31),
						Budget:   1 << 21,
					}, machines)
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if err := check.Consensus(rep, pattern, proposals); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
			})
		}
	}
}

func TestOmegaConsensusRoundRobin(t *testing.T) {
	n := 4
	pattern := sim.CrashPattern(n, map[sim.PID]sim.Time{0: 41})
	omega := fd.NewOmega(pattern, 300, 2)
	c := NewOmegaConsensus(n, omega, converge.UseAtomic)
	machines := make([]sim.StepMachine, n)
	proposals := make([]sim.Value, n)
	for i := range machines {
		proposals[i] = sim.Value(10 + i)
		machines[i] = c.Machine(proposals[i])
	}
	rep, err := sim.RunMachines(sim.Config{Pattern: pattern, Schedule: sim.RoundRobin(), Budget: 1 << 21}, machines)
	if err != nil {
		t.Fatal(err)
	}
	if err := check.Consensus(rep, pattern, proposals); err != nil {
		t.Fatal(err)
	}
}

func TestOmegaNSetAgreement(t *testing.T) {
	for n := 2; n <= 6; n++ {
		crashes := map[sim.PID]sim.Time{}
		for i := 1; i < n; i++ {
			crashes[sim.PID(i)] = sim.Time(9 * i)
		}
		patterns := map[string]sim.Pattern{
			"failfree":  sim.FailFree(n),
			"wait-free": sim.CrashPattern(n, crashes),
		}
		for pname, pattern := range patterns {
			t.Run(fmt.Sprintf("n%d/%s", n, pname), func(t *testing.T) {
				for seed := int64(0); seed < 5; seed++ {
					omegaN := fd.NewOmegaF(pattern, n-1, 80, seed)
					a := NewOmegaNSetAgreement(n, omegaN, converge.UseAtomic)
					machines := make([]sim.StepMachine, n)
					proposals := make([]sim.Value, n)
					for i := range machines {
						proposals[i] = sim.Value(10 + i)
						machines[i] = a.Machine(proposals[i])
					}
					rep, err := sim.RunMachines(sim.Config{
						Pattern:  pattern,
						Schedule: sim.NewRandom(seed + 5),
						Budget:   1 << 21,
					}, machines)
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if err := check.SetAgreement(rep, pattern, a.K(), proposals); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
			})
		}
	}
}

func TestOmegaNSetAgreementDropsAValue(t *testing.T) {
	// Ωn members' values are the only ones adopted: with the stable set
	// missing one process, at most n−1 values circulate.
	n := 4
	pattern := sim.FailFree(n)
	omegaN := fd.NewOmegaF(pattern, n-1, 0, 3) // stable from the start
	a := NewOmegaNSetAgreement(n, omegaN, converge.UseAtomic)
	machines := make([]sim.StepMachine, n)
	proposals := make([]sim.Value, n)
	for i := range machines {
		proposals[i] = sim.Value(10 + i)
		machines[i] = a.Machine(proposals[i])
	}
	rep, err := sim.RunMachines(sim.Config{Pattern: pattern, Schedule: sim.RoundRobin(), Budget: 1 << 21}, machines)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DecidedValues()) > n-1 {
		t.Fatalf("decided %v", rep.DecidedValues())
	}
}

func TestAsyncAttemptLivelocksUnderLockstep(t *testing.T) {
	// The impossibility side (E9): with n distinct inputs, no crashes and
	// lockstep scheduling, the FD-free attempt never decides.
	n := 4
	a := NewAsyncAttempt(n, converge.UseAtomic)
	machines := make([]sim.StepMachine, n)
	for i := range machines {
		machines[i] = a.Machine(sim.Value(10 + i))
	}
	rep, err := sim.RunMachines(sim.Config{Pattern: sim.FailFree(n), Schedule: sim.RoundRobin(), Budget: 50_000}, machines)
	if err == nil {
		t.Fatalf("async attempt decided %v under lockstep", rep.DecidedValues())
	}
	if len(rep.Decided) != 0 {
		t.Fatal("no decisions expected")
	}
}

func TestAsyncAttemptMayDecideOtherwise(t *testing.T) {
	// The impossibility says *some* run never decides, not all: under a
	// solo-start schedule the first process sees only its own value and
	// commits. Both behaviours are consistent with the theory.
	n := 4
	a := NewAsyncAttempt(n, converge.UseAtomic)
	machines := make([]sim.StepMachine, n)
	proposals := make([]sim.Value, n)
	for i := range machines {
		proposals[i] = sim.Value(10 + i)
		machines[i] = a.Machine(proposals[i])
	}
	rep, err := sim.RunMachines(sim.Config{Pattern: sim.FailFree(n), Schedule: sim.Priority(0, 1, 2, 3), Budget: 1 << 20}, machines)
	if err != nil {
		t.Fatal(err)
	}
	if err := check.SetAgreement(rep, sim.FailFree(n), n-1, proposals); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncAttemptWithFewValuesDecides(t *testing.T) {
	// With ≤ n−1 distinct inputs the attempt terminates even under
	// lockstep: converge's Convergence property fires. The impossibility
	// only bites at full input diversity.
	n := 4
	a := NewAsyncAttempt(n, converge.UseAtomic)
	machines := make([]sim.StepMachine, n)
	proposals := []sim.Value{10, 10, 11, 12}
	for i := range machines {
		machines[i] = a.Machine(proposals[i])
	}
	rep, err := sim.RunMachines(sim.Config{Pattern: sim.FailFree(n), Schedule: sim.RoundRobin(), Budget: 1 << 20}, machines)
	if err != nil {
		t.Fatal(err)
	}
	if err := check.SetAgreement(rep, sim.FailFree(n), n-1, proposals); err != nil {
		t.Fatal(err)
	}
}

func TestOmegaConsensusSingleProcess(t *testing.T) {
	pattern := sim.FailFree(1)
	omega := fd.NewOmega(pattern, 0, 0)
	c := NewOmegaConsensus(1, omega, converge.UseAtomic)
	rep, err := sim.RunMachines(sim.Config{Pattern: pattern, Schedule: sim.RoundRobin()},
		[]sim.StepMachine{c.Machine(99)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decided[0] != 99 {
		t.Fatalf("decided %v", rep.Decided)
	}
}

func TestOmegaNRegistersOnly(t *testing.T) {
	n := 3
	pattern := sim.FailFree(n)
	omegaN := fd.NewOmegaF(pattern, n-1, 50, 1)
	a := NewOmegaNSetAgreement(n, omegaN, converge.UseAfek)
	machines := make([]sim.StepMachine, n)
	proposals := make([]sim.Value, n)
	for i := range machines {
		proposals[i] = sim.Value(10 + i)
		machines[i] = a.Machine(proposals[i])
	}
	rep, err := sim.RunMachines(sim.Config{Pattern: pattern, Schedule: sim.NewRandom(9), Budget: 1 << 22}, machines)
	if err != nil {
		t.Fatal(err)
	}
	if err := check.SetAgreement(rep, pattern, a.K(), proposals); err != nil {
		t.Fatal(err)
	}
}
