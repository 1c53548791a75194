package core

import (
	"testing"

	"weakestfd/internal/converge"
	"weakestfd/internal/sim"
	"weakestfd/internal/trace"
)

// White-box step-profile tests: the paper's pseudocode prescribes which
// kinds of atomic operations each protocol performs; the trace summary of a
// recorded run verifies the implementations take exactly those step classes.

// profile runs machines with an access log, registering the detector
// history h so that queries class as "R(H)", and summarizes the run.
func profile(pattern sim.Pattern, budget int64, h sim.Oracle, machines []sim.StepMachine) (trace.Summary, *sim.Report, error) {
	log := sim.NewAccessLog()
	seam := sim.NewQuerySeam(log)
	seam.Register("H", h)
	rep, err := sim.RunMachines(sim.Config{
		Pattern: pattern, Schedule: sim.RoundRobin(), Budget: budget,
		AccessLog: log, Queries: seam,
	}, machines)
	return trace.Summarize(log, pattern.N()), rep, err
}

func TestFig1StepProfile(t *testing.T) {
	n := 4
	pattern := sim.FailFree(n)
	// Worst-case noise forces multiple rounds, exercising all step classes.
	h := Upsilon(n).HistoryWorstCase(pattern, 300, 1)
	g := NewFig1(n, h, converge.UseAtomic)
	machines := make([]sim.StepMachine, n)
	for i := range machines {
		machines[i] = g.Machine(sim.Value(100 + i))
	}
	s, _, err := profile(pattern, 1<<21, h, machines)
	if err != nil {
		t.Fatal(err)
	}
	// The protocol's vocabulary, per Figure 1: decision register reads and
	// writes, Υ queries, round registers, converge snapshot ops (an update
	// writes the updater's cell, a scan reads every cell).
	for _, class := range []string{
		"R(D)", "W(D)", "R(H)",
		"R(D[·])", "W(D[·])", "R(Stable[·])",
		"W(nconv[·][·]/·.A[·])", "R(nconv[·][·]/·.B[·])",
		"W(gconv[·][·]/·.A[·])",
	} {
		if s.ByClass[class] == 0 {
			t.Errorf("no %q steps recorded; classes: %v", class, s.ByClass)
		}
	}
	// No foreign step classes: everything must be one of the protocol's.
	allowed := map[string]bool{
		"R(D)": true, "W(D)": true, "R(H)": true,
		"R(D[·])": true, "W(D[·])": true,
		"R(Stable[·])": true, "W(Stable[·])": true,
		"W(nconv[·][·]/·.A[·])": true, "R(nconv[·][·]/·.A[·])": true,
		"W(nconv[·][·]/·.B[·])": true, "R(nconv[·][·]/·.B[·])": true,
		"W(gconv[·][·]/·.A[·])": true, "R(gconv[·][·]/·.A[·])": true,
		"W(gconv[·][·]/·.B[·])": true, "R(gconv[·][·]/·.B[·])": true,
	}
	for class := range s.ByClass {
		if !allowed[class] {
			t.Errorf("unexpected step class %q", class)
		}
	}
}

func TestFig2StepProfile(t *testing.T) {
	// Figure 2 adds the A[r][k] snapshot batching to the vocabulary.
	n, f := 5, 2
	pattern := sim.CrashPattern(n, map[sim.PID]sim.Time{0: 30, 1: 50})
	u := sim.SetOf(0, 2, 3, 4) // all correct + one faulty: gladiator path
	h := UpsilonF(n, f).HistoryWithStable(pattern, 0, 1, u)
	g := NewFig2(n, f, h, converge.UseAtomic)
	machines := make([]sim.StepMachine, n)
	for i := range machines {
		machines[i] = g.Machine(sim.Value(100 + i))
	}
	s, _, err := profile(pattern, 1<<21, h, machines)
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []string{"W(A[·][·]/·[·])", "R(A[·][·]/·[·])", "R(H)", "W(D)"} {
		if s.ByClass[class] == 0 {
			t.Errorf("no %q steps recorded; classes: %v", class, s.ByClass)
		}
	}
}

func TestExtractionStepProfile(t *testing.T) {
	// Figure 3's vocabulary: D queries, R[i] publications, report reads,
	// Changed/Exited flags, output writes.
	n := 3
	pattern := sim.FailFree(n)
	ex := NewExtraction(n, constPIDOracle{}, PhiOmega(n))
	machines := make([]sim.StepMachine, n)
	for i := range machines {
		machines[i] = ex.Machine()
	}
	s, rep, _ := profile(pattern, 5_000, constPIDOracle{}, machines)
	if !rep.BudgetExhausted {
		t.Fatal("extraction should run to budget")
	}
	for _, class := range []string{
		"R(H)", "W(R[·])", "R(R[·])",
		"R(Changed[·])", "W(Υf-output[·])",
	} {
		if s.ByClass[class] == 0 {
			t.Errorf("no %q steps recorded; classes: %v", class, s.ByClass)
		}
	}
}

// constPIDOracle is a trivially stable Ω-range oracle for profile tests.
type constPIDOracle struct{}

func (constPIDOracle) Value(sim.PID, sim.Time) any { return sim.PID(0) }
