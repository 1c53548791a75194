package explore

import (
	"fmt"
	"testing"

	"weakestfd/internal/memory"
	"weakestfd/internal/sim"
)

// The toy systems below validate the DPOR engine against ground truth small
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

// TestDPORDisjointSingleRun: when every step of one process commutes with
// every step of the other, the whole schedule space is one Mazurkiewicz
// trace and DPOR must execute exactly one run.
func TestDPORDisjointSingleRun(t *testing.T) {
	res := Explore(Config{
		System: toySystem{name: "toy-disjoint", disjoint: true, props: []Property{propAlwaysHolds{}}},
	})
	if res.Runs != 1 {
		t.Fatalf("disjoint toy explored %d runs, want exactly 1", res.Runs)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("unexpected violations: %v", res.Violations)
	}
}

// TestDPORFindsRaceReversal: the lost-update violation exists only in the
// interleavings where both reads precede both writes. DPOR must reach one
// via backtracking from the races it observes, within the 6 raw
// interleavings of the 2+2-step space (classic DPOR with sleep sets is
// sound but not optimal: on this 4-class space it may execute all 6).
func TestDPORFindsRaceReversal(t *testing.T) {
	res := Explore(Config{
		System: toySystem{name: "toy-shared", props: []Property{propSomeoneDecides2{}}},
	})
	if len(res.Violations) == 0 {
		t.Fatalf("DPOR missed the lost-update interleaving (%d runs)", res.Runs)
	}
	if res.Runs > 6 {
		t.Errorf("DPOR executed %d runs; the whole raw space is 6 interleavings", res.Runs)
	}
	t.Logf("lost update found in %d runs (%d pruned): %v", res.Runs, res.Pruned, res.Violations[0])
}

// TestDPORAgreesWithEnumOnToy: both engines judge the toy systems
// identically (violation present/absent).
func TestDPORAgreesWithEnumOnToy(t *testing.T) {
	for _, sys := range []toySystem{
		{name: "toy-shared", props: []Property{propSomeoneDecides2{}}},
		{name: "toy-disjoint", disjoint: true, props: []Property{propAlwaysHolds{}}},
	} {
		d := Explore(Config{System: sys})
		l := Explore(Config{System: sys, Engine: EngineEnum, MaxBlocks: 3, MaxBlock: 8})
		if (len(d.Violations) == 0) != (len(l.Violations) == 0) {
			t.Fatalf("%s: engines disagree: dpor %d violations, enum %d", sys.name, len(d.Violations), len(l.Violations))
		}
	}
}

// TestDPORTaskMachines: the explorer drives multi-task systems
// (Instance.Tasks → sim.RunTaskMachines) through the same DPOR lens; a
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
