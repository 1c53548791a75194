package check

import (
	"strings"
	"testing"

	"weakestfd/internal/sim"
)

func reportWith(decided map[sim.PID]sim.Value) *sim.Report {
	return &sim.Report{Decided: decided}
}

func TestSetAgreementOK(t *testing.T) {
	pattern := sim.CrashPattern(3, map[sim.PID]sim.Time{0: 5})
	rep := reportWith(map[sim.PID]sim.Value{1: 10, 2: 11})
	if err := SetAgreement(rep, pattern, 2, []sim.Value{10, 11, 12}); err != nil {
		t.Fatal(err)
	}
}

func TestSetAgreementTermination(t *testing.T) {
	pattern := sim.FailFree(2)
	rep := reportWith(map[sim.PID]sim.Value{0: 10})
	err := SetAgreement(rep, pattern, 2, []sim.Value{10, 11})
	if err == nil || !strings.Contains(err.Error(), "termination") {
		t.Fatalf("err = %v", err)
	}
}

func TestSetAgreementAgreement(t *testing.T) {
	pattern := sim.FailFree(3)
	rep := reportWith(map[sim.PID]sim.Value{0: 10, 1: 11, 2: 12})
	err := SetAgreement(rep, pattern, 2, []sim.Value{10, 11, 12})
	if err == nil || !strings.Contains(err.Error(), "agreement") {
		t.Fatalf("err = %v", err)
	}
}

func TestSetAgreementValidity(t *testing.T) {
	pattern := sim.FailFree(1)
	rep := reportWith(map[sim.PID]sim.Value{0: 99})
	err := SetAgreement(rep, pattern, 1, []sim.Value{10})
	if err == nil || !strings.Contains(err.Error(), "validity") {
		t.Fatalf("err = %v", err)
	}
}

func TestConsensusIsOneSetAgreement(t *testing.T) {
	pattern := sim.FailFree(2)
	rep := reportWith(map[sim.PID]sim.Value{0: 10, 1: 11})
	if err := Consensus(rep, pattern, []sim.Value{10, 11}); err == nil {
		t.Fatal("two values should violate consensus")
	}
	rep2 := reportWith(map[sim.PID]sim.Value{0: 10, 1: 10})
	if err := Consensus(rep2, pattern, []sim.Value{10, 11}); err != nil {
		t.Fatal(err)
	}
}

func TestOutputTraceStability(t *testing.T) {
	vals := []int{1, 1}
	trace := NewOutputTrace[int](2, func(i sim.PID) int { return vals[i] })
	trace.Observe(1)
	trace.Observe(2)
	vals[0] = 5
	trace.Observe(3)
	vals[0] = 1
	trace.Observe(4)
	trace.Observe(5)
	v, from, err := trace.StableFrom(sim.SetOf(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Errorf("stable = %d", v)
	}
	if from != 4 {
		t.Errorf("stable from %d, want 4 (last change of p1)", from)
	}
	if trace.Horizon() != 5 {
		t.Errorf("horizon = %d", trace.Horizon())
	}
	if got := trace.Final(); got[0] != 1 || got[1] != 1 {
		t.Errorf("final = %v", got)
	}
}

func TestOutputTraceDisagreement(t *testing.T) {
	trace := NewOutputTrace[int](2, func(i sim.PID) int { return []int{1, 2}[i] })
	trace.Observe(1)
	if _, _, err := trace.StableFrom(sim.SetOf(0, 1)); err == nil {
		t.Fatal("expected disagreement error")
	}
	// Restricting to one process succeeds.
	if v, _, err := trace.StableFrom(sim.SetOf(1)); err != nil || v != 2 {
		t.Fatalf("v=%d err=%v", v, err)
	}
}

func TestOutputTraceEmpty(t *testing.T) {
	trace := NewOutputTrace[int](1, func(sim.PID) int { return 0 })
	if _, _, err := trace.StableFrom(sim.SetOf(0)); err == nil {
		t.Fatal("expected error with no samples")
	}
	trace.Observe(1)
	if _, _, err := trace.StableFrom(sim.EmptySet); err == nil {
		t.Fatal("expected error with empty process set")
	}
}

func TestOutputTraceHookNeverStops(t *testing.T) {
	trace := NewOutputTrace[int](1, func(sim.PID) int { return 7 })
	hook := trace.Hook()
	for i := sim.Time(1); i <= 3; i++ {
		if hook(i) {
			t.Fatal("hook must not stop the run")
		}
	}
	if v, _, err := trace.StableFrom(sim.SetOf(0)); err != nil || v != 7 {
		t.Fatalf("v=%d err=%v", v, err)
	}
}
