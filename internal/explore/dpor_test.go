package explore

import (
	"fmt"
	"strings"
	"testing"

	"weakestfd/internal/memory"
	"weakestfd/internal/sim"
)

// The toy systems below validate source-DPOR against ground truth small
// enough to reason about by hand: two processes, two operations each.

// toyMachine reads a register, then writes source+1 to another register and
// decides the written value — the canonical lost-update shape when src and
// dst are the same shared counter for both processes.
type toyMachine struct {
	src, dst *memory.Register[int64]
	log      *sim.AccessLog
	local    int64
	pc       int
}

func (m *toyMachine) Init(ctx sim.MachineContext) { m.log = ctx.Log }

func (m *toyMachine) Step(sim.Time) sim.MachineStatus {
	switch m.pc {
	case 0:
		m.local = m.src.DirectRead(m.log)
		m.pc = 1
		return sim.MachineRunning
	default:
		m.dst.DirectWrite(m.log, m.local+1)
		return sim.MachineDecided
	}
}

func (m *toyMachine) Decision() sim.Value { return sim.Value(m.local + 1) }

// toySystem is a 2-process failure-free system over toy machines.
type toySystem struct {
	name     string
	disjoint bool
	props    []Property
}

func (s toySystem) Name() string   { return s.name }
func (s toySystem) N() int         { return 2 }
func (s toySystem) MaxFaults() int { return 0 }
func (s toySystem) Oracles(sim.Pattern, SwitchPlan) []OracleChoice {
	return []OracleChoice{{Name: "-"}}
}
func (s toySystem) Properties() []Property { return s.props }

func (s toySystem) LegalFlipOut(sim.Set) error { return nil }

func (s toySystem) Instantiate(sim.Pattern, OracleChoice) Instance {
	if s.disjoint {
		// Each process owns a private counter: every pair of steps of
		// different processes commutes.
		a := memory.NewRegister[int64](sim.KeyOf("a"))
		b := memory.NewRegister[int64](sim.KeyOf("b"))
		return Instance{Machines: []sim.StepMachine{
			&toyMachine{src: a, dst: a},
			&toyMachine{src: b, dst: b},
		}}
	}
	// Shared counter: read-read commutes, read-write and write-write do not.
	x := memory.NewRegister[int64](sim.KeyOf("x"))
	return Instance{Machines: []sim.StepMachine{
		&toyMachine{src: x, dst: x},
		&toyMachine{src: x, dst: x},
	}}
}

// propSomeoneDecides2 fails on the lost-update interleavings (both read 0
// before either writes), where both processes decide 1.
type propSomeoneDecides2 struct{}

func (propSomeoneDecides2) Name() string { return "someone-decides-2" }
func (propSomeoneDecides2) Check(r *Run) error {
	for _, v := range r.Report.Decided {
		if v == 2 {
			return nil
		}
	}
	return fmt.Errorf("no process decided 2: %v", r.Report.Decided)
}

// propAlwaysHolds never fails; it exists so clean sweeps still execute the
// checking path.
type propAlwaysHolds struct{}

func (propAlwaysHolds) Name() string     { return "always-holds" }
func (propAlwaysHolds) Check(*Run) error { return nil }

// toyOracle runs the ground-truth oracle over a toy system at full depth:
// the brute force enumerates its 6 raw interleavings.
func toyOracle(t *testing.T, sys toySystem) *oracleReport {
	t.Helper()
	rep := runOracle(t, oracleCase{name: sys.name, cfg: Config{System: sys}})
	if rep.leaves != 6 {
		t.Errorf("%s: brute force ran %d interleavings, want the 2+2-step space's 6", sys.name, rep.leaves)
	}
	return rep
}

// TestDPORDisjointSingleRun: when every step of one process commutes with
// every step of the other, the whole schedule space is one Mazurkiewicz
// trace: source-DPOR, with and without joins, must execute exactly one run,
// and that run reaches the outcome of all 6 interleavings (runOracle).
func TestDPORDisjointSingleRun(t *testing.T) {
	rep := toyOracle(t, toySystem{name: "toy-disjoint", disjoint: true, props: []Property{propAlwaysHolds{}}})
	for _, res := range []*Result{rep.source, rep.hash} {
		if res.Runs != 1 {
			t.Errorf("%s: disjoint toy explored %d runs, want exactly 1", res.Engine, res.Runs)
		}
		if len(res.Violations) != 0 {
			t.Errorf("%s: unexpected violations: %v", res.Engine, res.Violations)
		}
	}
}

// TestDPORFindsRaceReversal: the lost-update violation exists only in the
// interleavings where both reads precede both writes, which the first run
// is not. Source-DPOR must reach one by reversing the races it observes,
// within the 6 raw interleavings the brute force runs.
func TestDPORFindsRaceReversal(t *testing.T) {
	rep := toyOracle(t, toySystem{name: "toy-shared", props: []Property{propSomeoneDecides2{}}})
	for _, res := range []*Result{rep.source, rep.hash} {
		if len(res.Violations) == 0 {
			t.Errorf("%s: missed the lost-update interleaving (%d runs)", res.Engine, res.Runs)
			continue
		}
		if res.Runs > rep.leaves {
			t.Errorf("%s: executed %d runs; the whole raw space is %d interleavings", res.Engine, res.Runs, rep.leaves)
		}
		t.Logf("%s: lost update found in %d runs (%d pruned): %v", res.Engine, res.Runs, res.Pruned, res.Violations[0])
	}
}

// TestDPORAgreesWithEnumOnToy: source-DPOR, with and without joins, judges
// the toy systems exactly as the brute force over their raw interleavings
// does — the same violated properties, in no more runs than there are
// interleavings. The brute force itself is checked against the hand count:
// the lost update happens in the 4 of 6 interleavings where both reads
// precede both writes.
func TestDPORAgreesWithEnumOnToy(t *testing.T) {
	for _, tc := range []struct {
		sys       toySystem
		violating int64
	}{
		{toySystem{name: "toy-shared", props: []Property{propSomeoneDecides2{}}}, 4},
		{toySystem{name: "toy-disjoint", disjoint: true, props: []Property{propAlwaysHolds{}}}, 0},
	} {
		rep := toyOracle(t, tc.sys)
		if rep.violatingLeaves != tc.violating {
			t.Fatalf("%s: %d of %d interleavings violate, want %d", tc.sys.name, rep.violatingLeaves, rep.leaves, tc.violating)
		}
		want := strings.Join(rep.violating, "\n")
		for _, res := range []*Result{rep.source, rep.hash} {
			if got := strings.Join(violationKeys(res), "\n"); got != want {
				t.Errorf("%s %s: violations %q, brute force %q", tc.sys.name, res.Engine, got, want)
			}
		}
	}
}

// TestDPORTaskMachines: the explorer drives multi-task systems (task sets
// run as sim.TaskMachines) through the same DPOR lens; a
// composed n=2 sweep over one configuration must be deterministic and
// violation-free.
func TestDPORTaskMachines(t *testing.T) {
	run := func() *Result {
		return Explore(Config{System: ComposedSystem(2), MaxDepth: 16, Budget: 4096})
	}
	a := run()
	if len(a.Violations) != 0 {
		t.Fatalf("composed n=2: %v", a.Violations)
	}
	if a.Runs < 2 {
		t.Fatalf("composed n=2 explored only %d runs; task interleavings should race", a.Runs)
	}
	b := run()
	if a.Runs != b.Runs || a.Pruned != b.Pruned {
		t.Fatalf("task-machine DPOR not deterministic: (%d,%d) vs (%d,%d)", a.Runs, a.Pruned, b.Runs, b.Pruned)
	}
}
