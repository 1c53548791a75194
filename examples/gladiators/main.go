// Gladiators and citizens: a narrated run of the paper's Figure 1 protocol
// on the paper's own 3-process example (Section 4): p1 fails while p2 and
// p3 are correct, and Υ eventually outputs a fixed set U ≠ {p2, p3}.
//
// Processes inside U are "gladiators": they fight to shed one of their
// values through (|U|−1)-converge. Processes outside U are "citizens": they
// contribute their value to the round register D[r] and move on. The
// protocol terminates because Υ guarantees that, eventually, either a
// gladiator is dead or a citizen is alive.
//
// Run with: go run ./examples/gladiators
package main

import (
	"fmt"
	"log"

	"weakestfd/internal/converge"
	"weakestfd/internal/core"
	"weakestfd/internal/sim"
)

func main() {
	const n = 3
	pattern := sim.CrashPattern(n, map[sim.PID]sim.Time{0: 40}) // p1 crashes

	// Υ stabilizes at step 60 on U = {p1, p2}: p1 is a gladiator that will
	// die, p3 is a citizen that will live — both escape hatches on display.
	spec := core.Upsilon(n)
	u := sim.SetOf(0, 1)
	if err := spec.LegalStable(pattern, u); err != nil {
		log.Fatal(err)
	}
	h := spec.HistoryWithStable(pattern, 60, 7, u)

	g := core.NewFig1(n, h, converge.UseAtomic)
	machines := make([]sim.StepMachine, n)
	for i := range machines {
		machines[i] = g.Machine(sim.Value(100 + i))
	}

	fmt.Printf("pattern: %v   stable Υ output: %v (≠ correct %v)\n\n",
		pattern, u, pattern.Correct())

	// Record every step's shared-object accesses; registering the history
	// makes each Υ query a read of its object H(Υ).
	steps := sim.NewAccessLog()
	queries := sim.NewQuerySeam(steps)
	queries.Register("H(Υ)", h)
	rep, err := sim.RunMachines(sim.Config{
		Pattern:   pattern,
		Schedule:  sim.RoundRobin(),
		Budget:    1 << 20,
		AccessLog: steps,
		Queries:   queries,
	}, machines)
	if err != nil {
		log.Fatal(err)
	}

	// Print a compressed trace: one line per step up to t=40, then only the
	// steps touching the decision register D.
	var last sim.Time
	for i := 0; i < steps.Steps(); i++ {
		p, accs := steps.Step(i)
		t := sim.Time(i + 1) // step i is granted at time i+1
		if t > 40 && !touchesD(steps, accs) {
			continue
		}
		role := "citizen"
		if u.Has(p) {
			role = "gladiator"
		}
		if t-last > 1 {
			fmt.Println("  ...")
		}
		last = t
		fmt.Printf("  t=%-4d %v (%s): %s\n", t, p, role, steps.AccessString(accs))
	}

	fmt.Println("\noutcome:")
	fmt.Printf("  crashed: %v\n", rep.Crashed)
	for _, p := range pattern.Correct().Members() {
		fmt.Printf("  %v decided %d at t=%d\n", p, rep.Decided[p], rep.DecidedAt[p])
	}
	fmt.Printf("  distinct decisions: %v (bound ≤ %d)\n", rep.DecidedValues(), g.K())
}

// touchesD reports whether a step accessed the decision register D.
func touchesD(steps *sim.AccessLog, accs []sim.Access) bool {
	for _, a := range accs {
		if steps.ObjName(a.Obj) == "D" {
			return true
		}
	}
	return false
}
