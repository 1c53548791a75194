package memory

import (
	"testing"

	"weakestfd/internal/sim"
)

func TestConsensusObjectFirstWins(t *testing.T) {
	obj := NewConsensusObject(sim.KeyOf("c"), 3)
	results := make([]sim.Value, 3)
	machines := make([]sim.StepMachine, 3)
	for i := range machines {
		me := sim.PID(i)
		machines[i] = &opMachine{ops: []func(*sim.AccessLog, sim.PID) bool{
			func(l *sim.AccessLog, me sim.PID) bool {
				results[me] = obj.DirectPropose(l, me, sim.Value(me)+100)
				return true
			},
		}, decide: func() sim.Value { return results[me] }}
	}
	// Priority: p2 proposes first.
	if _, err := sim.RunMachines(sim.Config{Pattern: sim.FailFree(3), Schedule: sim.Priority(1, 0, 2)},
		machines); err != nil {
		t.Fatal(err)
	}
	for i, v := range results {
		if v != 101 {
			t.Fatalf("p%d got %d, want first proposal 101", i+1, v)
		}
	}
	if d := obj.Decision(); !d.OK || d.V != 101 {
		t.Fatalf("decision %+v", d)
	}
	if obj.Limit() != 3 {
		t.Fatalf("limit %d", obj.Limit())
	}
}

func TestConsensusObjectRepeatAccessor(t *testing.T) {
	// The same process proposing repeatedly counts once against the limit.
	obj := NewConsensusObject(sim.KeyOf("c"), 1)
	var a, b sim.Value
	m := &opMachine{ops: []func(*sim.AccessLog, sim.PID) bool{
		func(l *sim.AccessLog, me sim.PID) bool { a = obj.DirectPropose(l, me, 5); return true },
		func(l *sim.AccessLog, me sim.PID) bool { b = obj.DirectPropose(l, me, 9); return true },
	}, decide: func() sim.Value {
		if a != 5 || b != 5 {
			t.Errorf("got %d/%d", a, b)
		}
		return a
	}}
	if _, err := sim.RunMachines(sim.Config{Pattern: sim.FailFree(1), Schedule: sim.RoundRobin()},
		[]sim.StepMachine{m}); err != nil {
		t.Fatal(err)
	}
	if obj.Accessors() != sim.SetOf(0) {
		t.Fatalf("accessors %v", obj.Accessors())
	}
}

func TestConsensusObjectValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for limit 0")
		}
	}()
	NewConsensusObject(sim.KeyOf("c"), 0)
}

func TestConsFamilyWithinLimitEmpty(t *testing.T) {
	fam := NewConsFamily(sim.KeyOf("c"), 2)
	if err := fam.AllAccessorsWithinLimit(); err != nil {
		t.Fatal(err)
	}
}
