package core

import (
	"encoding/json"
	"fmt"
	"testing"

	"weakestfd/internal/converge"
	"weakestfd/internal/fd"
	"weakestfd/internal/sim"
)

// TestResetMatchesFresh: Fig1, Fig2 and Extraction Reset return the shared
// memory and the machines to their initial state, on the one-step and the
// registers-only snapshot alike — a run cut short by its budget leaves
// Afek et al. operations in flight. Each protocol runs seed after seed on
// one value, Reset between runs, and every Report must equal the Report of
// the same seed on freshly built state.
func TestResetMatchesFresh(t *testing.T) {
	const n = 3
	pattern := sim.CrashPattern(n, map[sim.PID]sim.Time{2: 40})
	upsilon := fd.NewUnstable(sim.SetOf(0), fd.Phase[sim.Set]{Until: 30, Out: sim.SetOf(0, 1, 2)})
	omega := fd.NewUnstable(sim.PID(0), fd.Phase[sim.PID]{Until: 20, Out: 2})
	type build func() (reset func(), machines []sim.StepMachine)
	protocols := map[string]build{
		"extraction": func() (func(), []sim.StepMachine) {
			e := NewExtraction(n, omega, PhiOmega(n))
			return e.Reset, []sim.StepMachine{e.Machine(), e.MutantMachine(MutExStaleLeader), e.Machine()}
		},
	}
	for _, impl := range []converge.Impl{converge.UseAtomic, converge.UseAfek} {
		protocols["fig1/"+impl.String()] = func() (func(), []sim.StepMachine) {
			g := NewFig1(n, upsilon, impl)
			return g.Reset, []sim.StepMachine{g.Machine(100), g.MutantMachine(101, MutWrongAdopt), g.Machine(102)}
		}
		protocols["fig2/"+impl.String()] = func() (func(), []sim.StepMachine) {
			g := NewFig2(n, 1, upsilon, impl)
			return g.Reset, []sim.StepMachine{g.Machine(100), g.Machine(101), g.MutantMachine(102, MutF2StarvedWait)}
		}
	}
	report := func(machines []sim.StepMachine, seed, budget int64) string {
		rep, err := sim.RunMachines(sim.Config{Pattern: pattern, Schedule: sim.NewRandom(seed), Budget: budget}, machines)
		b, jerr := json.Marshal(rep)
		if jerr != nil {
			t.Fatal(jerr)
		}
		return fmt.Sprintf("%s %v", b, err)
	}
	for name, mk := range protocols {
		reset, reused := mk()
		for seed := int64(1); seed <= 40; seed++ {
			budget := 50 + 37*seed%400 // cuts some runs short mid-operation
			_, fresh := mk()
			want := report(fresh, seed, budget)
			if seed > 1 {
				reset()
			}
			if got := report(reused, seed, budget); got != want {
				t.Fatalf("%s seed %d after Reset: %s, fresh %s", name, seed, got, want)
			}
		}
	}
}
