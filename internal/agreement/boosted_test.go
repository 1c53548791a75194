package agreement

import (
	"fmt"
	"testing"

	"weakestfd/internal/check"
	"weakestfd/internal/converge"
	"weakestfd/internal/fd"
	"weakestfd/internal/memory"
	"weakestfd/internal/sim"
)

func runBoosted(t *testing.T, pattern sim.Pattern, ts sim.Time, seed int64, sched sim.Schedule) (*sim.Report, *BoostedConsensus) {
	t.Helper()
	n := pattern.N()
	omegaN := fd.NewOmegaF(pattern, n-1, ts, seed)
	b := NewBoostedConsensus(n, omegaN, converge.UseAtomic)
	machines := make([]sim.StepMachine, n)
	proposals := make([]sim.Value, n)
	for i := range machines {
		proposals[i] = sim.Value(10 + i)
		machines[i] = b.Machine(proposals[i])
	}
	rep, err := sim.RunMachines(sim.Config{Pattern: pattern, Schedule: sched, Budget: 1 << 22}, machines)
	if err != nil {
		t.Fatalf("boosted run: %v", err)
	}
	if err := check.Consensus(rep, pattern, proposals); err != nil {
		t.Fatalf("boosted consensus violated: %v", err)
	}
	if err := b.Objects().AllAccessorsWithinLimit(); err != nil {
		t.Fatalf("consensus-object discipline violated: %v", err)
	}
	return rep, b
}

func TestBoostedConsensusSweep(t *testing.T) {
	for n := 2; n <= 6; n++ {
		crashes := map[sim.PID]sim.Time{}
		for i := 1; i < n; i++ {
			crashes[sim.PID(i)] = sim.Time(11 * i)
		}
		patterns := map[string]sim.Pattern{
			"failfree":  sim.FailFree(n),
			"one-crash": sim.CrashPattern(n, map[sim.PID]sim.Time{sim.PID(n - 1): 23}),
			"wait-free": sim.CrashPattern(n, crashes),
		}
		for pname, pattern := range patterns {
			t.Run(fmt.Sprintf("n%d/%s", n, pname), func(t *testing.T) {
				for seed := int64(0); seed < 4; seed++ {
					runBoosted(t, pattern, 90, seed, sim.NewRandom(seed+17))
				}
			})
		}
	}
}

func TestBoostedConsensusRoundRobin(t *testing.T) {
	n := 5
	pattern := sim.CrashPattern(n, map[sim.PID]sim.Time{0: 35})
	runBoosted(t, pattern, 250, 3, sim.RoundRobin())
}

func TestBoostedConsensusDivergentViewsStaySafe(t *testing.T) {
	// With a long noise period, divergent Ωn views hit many distinct
	// consensus objects; the per-object n-process limit must never trip
	// (the family panics if it does) and consensus must still hold.
	n := 4
	pattern := sim.FailFree(n)
	rep, b := runBoosted(t, pattern, 3_000, 7, sim.NewRandom(5))
	if err := b.Objects().AllAccessorsWithinLimit(); err != nil {
		t.Fatal(err)
	}
	if len(rep.DecidedValues()) != 1 {
		t.Fatalf("decided %v", rep.DecidedValues())
	}
}

// onceMachine performs one step, do, and decides what do returned.
type onceMachine struct {
	do  func(l *sim.AccessLog, me sim.PID) sim.Value
	ctx sim.MachineContext
	v   sim.Value
}

func (m *onceMachine) Init(ctx sim.MachineContext) { m.ctx = ctx }

func (m *onceMachine) Step(sim.Time) sim.MachineStatus {
	if m.do != nil {
		m.v = m.do(m.ctx.Log, m.ctx.ID)
	}
	return sim.MachineDecided
}

func (m *onceMachine) Decision() sim.Value { return m.v }

// proposer is a onceMachine proposing v(me) to obj.
func proposer(obj *memory.ConsensusObject, v func(me sim.PID) sim.Value) sim.StepMachine {
	return &onceMachine{do: func(l *sim.AccessLog, me sim.PID) sim.Value {
		return obj.DirectPropose(l, me, v(me))
	}}
}

func TestConsensusObjectSemantics(t *testing.T) {
	obj := memory.NewConsensusObject(sim.KeyOf("c"), 2)
	plus10 := func(me sim.PID) sim.Value { return sim.Value(me) + 10 }
	rep, err := sim.RunMachines(sim.Config{Pattern: sim.FailFree(2), Schedule: sim.RoundRobin()},
		[]sim.StepMachine{proposer(obj, plus10), proposer(obj, plus10)})
	if err != nil {
		t.Fatal(err)
	}
	got := [2]sim.Value{rep.Decided[0], rep.Decided[1]}
	if got[0] != got[1] {
		t.Fatalf("object decided two values: %v", got)
	}
	if got[0] != 10 {
		t.Fatalf("first proposal should win under round-robin, got %v", got[0])
	}
	if len(rep.DecidedValues()) != 1 {
		t.Fatalf("decisions %v", rep.DecidedValues())
	}
	if obj.Accessors() != sim.SetOf(0, 1) {
		t.Fatalf("accessors %v", obj.Accessors())
	}
	if d := obj.Decision(); !d.OK || d.V != 10 {
		t.Fatalf("decision %+v", d)
	}
}

func TestConsensusObjectLimitEnforced(t *testing.T) {
	obj := memory.NewConsensusObject(sim.KeyOf("c"), 2)
	one := func(sim.PID) sim.Value { return 1 }
	defer func() {
		if recover() == nil {
			t.Fatal("third accessor must panic")
		}
	}()
	_, _ = sim.RunMachines(sim.Config{Pattern: sim.FailFree(3), Schedule: sim.RoundRobin()},
		[]sim.StepMachine{proposer(obj, one), proposer(obj, one), proposer(obj, one)})
}

func TestConsFamilyKeying(t *testing.T) {
	fam := memory.NewConsFamily(sim.KeyOf("c"), 2)
	a := fam.At(1, sim.SetOf(0, 1))
	b := fam.At(1, sim.SetOf(0, 1))
	c := fam.At(1, sim.SetOf(0, 2))
	d := fam.At(2, sim.SetOf(0, 1))
	if a != b || a == c || a == d {
		t.Fatal("keying wrong")
	}
	if err := fam.AllAccessorsWithinLimit(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("oversized key set must panic")
		}
	}()
	fam.At(1, sim.SetOf(0, 1, 2))
}

func TestConsFamilyDetectsForeignAccessor(t *testing.T) {
	fam := memory.NewConsFamily(sim.KeyOf("c"), 2)
	obj := fam.At(1, sim.SetOf(0, 1))
	// p3 accesses the {p1,p2}-keyed object.
	five := func(sim.PID) sim.Value { return 5 }
	if _, err := sim.RunMachines(sim.Config{Pattern: sim.FailFree(3), Schedule: sim.Priority(2)},
		[]sim.StepMachine{&onceMachine{}, &onceMachine{}, proposer(obj, five)}); err != nil {
		t.Fatal(err)
	}
	if err := fam.AllAccessorsWithinLimit(); err == nil {
		t.Fatal("foreign accessor not detected")
	}
}
